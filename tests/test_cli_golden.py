"""Byte-identity guard for the CLI examples in README.md.

Every command of README's CLI block is run in ``--format pretty`` and
``--format json``; its exit code and the sha256 of its stdout are pinned.
So are a few longer exchange paths (``EXCHANGE_PATHS``), a twelve-step
A-mutation path at (6,12) in every format and with ``--order``
(``A_CHAINS``), larger matching listings in every format (``MATCHINGS``),
polynomials in edge and face variables and their valuations past the shark
(``POLYNOMIALS``), the CSV partition function and the valuation of a
square-moved model read back from its file (``MOVED_PARTITION``),
seed-layer commands past n = 9, where labels are comma lists
(``PAST_NINE``), a cone's inequalities as CSV (``CONES``), and every verify
suite up the ladder past (2,5) in every format (``VERIFY_LADDER``).  A change
to the computation that
is meant to leave the output alone must leave every pin alone.  To re-pin
after an intended output change, run

    PYTHONPATH=src python tests/test_cli_golden.py

and paste the printed tables over ``GOLDEN``, ``EXCHANGE_PATHS``,
``A_CHAINS``, ``MATCHINGS``, ``POLYNOMIALS``, ``PAST_NINE``, ``CONES``,
``VERIFY_LADDER`` and ``MOVED_PARTITION``.
"""

import contextlib
import hashlib
import io
import os
import shlex
import tempfile

import pytest

from plabicflow import cli, plabic

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")
FORMATS = ("pretty", "json")

# (command as in README, format) -> (exit code, sha256 of stdout)
GOLDEN = {
    ('matchings shark', 'pretty'):
        (0, '180e0237a497e20d95582d3253e7cbfedfcf0d512d79fce438ca5722fc74a203'),
    ('matchings shark', 'json'):
        (0, 'f737e06ae8733a946d3370b60ce98f1a4a9df8666f204611d91b886e397ba5c6'),
    ('partition shark 35', 'pretty'):
        (0, '2f1750262cec5a6f56a888e3702ba81dd39cfd5692e9cdc8439b56d3009dafae'),
    ('partition shark 35', 'json'):
        (0, '8463cf6456ad2a61c49c6d2c5a7fb6fd0fb0bd99876f8b7be4a1b57eeea7f16c'),
    ('flow shark 25', 'pretty'):
        (0, 'fd17604d9d930050e298cd62babf20ff725f313bc27fbdd4f7dbcc458467d3bc'),
    ('flow shark 25', 'json'):
        (0, 'c992f8f6cebd8ec72daf52ba36887561318cc3eb5d1590bbf1dfa1f5a2e015d5'),
    ('valuation shark 25', 'pretty'):
        (0, '2696e39863e0e612c6d1743a57af17803fb58c259d427946aa2971b03818c49d'),
    ('valuation shark 25', 'json'):
        (0, '2991599ffb51d292c118fc4cde5cc33dd3e9407656f63999fa44f5a051e6b20a'),
    ('kappa rect:4,9 1,4,5,7', 'pretty'):
        (0, '3263640997c382622e0bfe7c6a97ebb3e0aa5793d09df15980fe6ddbabdab881'),
    ('kappa rect:4,9 1,4,5,7', 'json'):
        (0, '991b6f3aa58bdedf7c0714b06d4bc8b6f9eaf756e9c63b391fdffea40ef7b9d5'),
    ('mutate rect:2,4 --mutations 13', 'pretty'):
        (0, 'c843f8638218cbc1fcc18c2f7090c6ab122522f8b2fed91c3952ad01ecc55e79'),
    ('mutate rect:2,4 --mutations 13', 'json'):
        (0, 'd3e2f09645ced97b37f87555dcc02e2c08e78f695ceb1f9a8d197f105bd61abf'),
    ('xcheck rect:3,6 --mutations 124,145', 'pretty'):
        (0, 'a97ba9d016fbe429ed6b49ffb3c0c659aa80f701843b218a67b78bf7316da5f8'),
    ('xcheck rect:3,6 --mutations 124,145', 'json'):
        (0, '8a2556b9d1bb86a7bbab6efe1deb84f7dc49633c4284ddf3e1af2a4aa0bd7cc1'),
    ('gt-cone --kn 2,4', 'pretty'):
        (0, '0b3e1cef48b9d0229b7741b02dc461e4baa89065a288738727f394b1825e6c95'),
    ('gt-cone --kn 2,4', 'json'):
        (0, '4c6389cd41b0b9ec0f33881496c671525c9befc0cff982c0b88d68cd6da672ca'),
    ('gt-cone --kn 2,5 --level 2', 'pretty'):
        (0, '860df1f47e8ea9627011d619cc5c9f6f9f8fcebe303cec18b35b973cbab32b62'),
    ('gt-cone --kn 2,5 --level 2', 'json'):
        (0, '5cf6452d04d18516497e2fb9fdfda6919489275d8e702551f515fb432381df38'),
    ('no-body rect:2,4', 'pretty'):
        (0, 'ce303ca2f51639583880c85ba06715d78fd9cb83ee6bc869a6d84542ef77663a'),
    ('no-body rect:2,4', 'json'):
        (0, '3e09d5869c8d64dc69ce16440c036c04c5fe520cdbf369e89b10a809d51b0da8'),
    ('superpotential --kn 2,4 --mutations 13', 'pretty'):
        (0, 'b3f379ce05a44da0ec4693c78337b8a00fa3c67c07449f99b3523d3b1ebb40a9'),
    ('superpotential --kn 2,4 --mutations 13', 'json'):
        (0, '615ff9d703a6947019d51175f9752841d9cdcfcc29618b7ea109b7d95f9adbac'),
    ('wx --kn 2,4', 'pretty'):
        (0, 'bad1cf35babda04f972a7e290cd31baa8df61854c74799383c47dfcaf39b22a9'),
    ('wx --kn 2,4', 'json'):
        (0, '8d525d249b239d129ba2263ea948acc329fd93069cff447cf4a198710b6804b9'),
    ('verify all --kn 2,5', 'pretty'):
        (0, 'e8f54506d93c6cf3d7b00cf3f4007ead072f0140e9610eb3128afca2c3822c6c'),
    ('verify all --kn 2,5', 'json'):
        (0, '03c63612bcb3c4ad9344232540afa78759118c7fc57071b7ac4290884519acde'),
}

# Five-step exchange paths through the packed exchange steps and the seed
# mutation: on the superpotential path every step divides by a power of the
# exchange binomial, on the xcheck path 55 of 175 do.
EXCHANGE_PATHS = {
    ('superpotential --kn 4,9 --mutations 1238,1237,1278,1345,1679', 'pretty'):
        (0, '17f5b3755f80ba77fc00c1aa5396cc6a02582dc1c4b2568768f8c1631bace890'),
    ('superpotential --kn 4,9 --mutations 1238,1237,1278,1345,1679', 'json'):
        (0, '0427b6bcbc5989b34ebd6a3ad32bb928ad108c41aab47caf43a2466e372c9dab'),
    ('mutate rect:4,9 --mutations 1238,1237,1278,1345,1679', 'json'):
        (0, 'a7a5718248324a6754d9f591fb684f0bbe129ba535e49b76863fbb9fd31d41e5'),
    ('xcheck rect:3,7 --mutations 125,156,126,145,467', 'pretty'):
        (0, '082623ae3cfb57c9524c27932fba81e948fc47409352f0a731d77427d70b9bfa'),
}

# A twelve-step A-mutation path at (6,12), over q and 37 faces, in every
# format, and with the last chart's lattice reversed by --order: the packed
# exchange step at every vertex, and the view made once at the end.  Pinned
# before the steps were packed.
A_CHAIN_PATH = ('1,2,3,4,5,9,1,3,4,5,6,7,1,2,3,4,5,8,1,2,3,4,8,9,1,2,3,4,5,10,1,2,'
                '3,5,6,7,1,2,5,6,7,8,1,2,3,4,9,10,1,5,6,7,8,9,1,2,3,9,10,11,1,4,5,'
                '6,7,8,1,2,3,4,7,8')
A_CHAIN_ORDER = ('7,8,9,10,11,12,6,7,8,9,10,11,5,6,7,8,9,10,4,6,7,8,9,10,4,5,6,7,8,'
                 '9,3,4,5,6,7,8,2,4,6,7,8,9,2,4,5,6,7,8,2,3,4,5,6,7,1,8,9,10,11,12,'
                 '1,7,8,9,10,11,1,6,7,8,9,10,1,4,6,7,8,9,1,2,9,10,11,12,1,2,8,10,11,'
                 '12,1,2,8,9,10,11,1,2,7,8,9,10,1,2,6,7,8,9,1,2,4,6,7,8,1,2,4,5,6,7,'
                 '1,2,3,10,11,12,1,2,3,8,10,11,1,2,3,8,9,10,1,2,3,7,8,10,1,2,3,7,8,'
                 '9,1,2,3,6,7,10,1,2,3,6,7,8,1,2,3,4,11,12,1,2,3,4,10,11,1,2,3,4,8,'
                 '10,1,2,3,4,7,11,1,2,3,4,7,10,1,2,3,4,6,7,1,2,3,4,5,12,1,2,3,4,5,'
                 '11,1,2,3,4,5,7,1,2,3,4,5,6,q')
A_CHAIN = f"superpotential --kn 6,12 --mutations {A_CHAIN_PATH}"
A_CHAINS = {
    (A_CHAIN, 'pretty'):
        (0, '0a6340f1ec949edb91871c01762876c4bb3a6e8b58c2b5317fdaf842b671409b'),
    (A_CHAIN, 'json'):
        (0, '1adf9b1e4b6d0d813cc6967c475a27fee1273b36605a34272e2e6fbbf1a78e5f'),
    (A_CHAIN, 'csv'):
        (0, '7c029790d4e255534525e164c4c4bfe7d92e3cb81c076186d76854537b447414'),
    (f"{A_CHAIN} --order {A_CHAIN_ORDER}", 'json'):
        (0, '3c5f25ff546c3db1dc61ade6672548196576635ce7be98d2687c00c87be8f99c'),
}

# Matching listings past the README's shark, in every format: the edge names
# are read off the table's edge masks, so these pin their order and spelling.
MATCHINGS = {
    ('matchings rect:3,7', 'pretty'):
        (0, '4d82b17b14d2e42b0691076e6d0036f6292c6ba5cfb34e6f22d59217036ded78'),
    ('matchings rect:3,7', 'json'):
        (0, '36f52ce394d0013f52dfcb83fae737391f82fcb4d7b04a7c25928b62ca112a6a'),
    ('matchings rect:3,7', 'csv'):
        (0, '4d69b995896451586452eb08c1cd05d61b580ba842638c56b7dab52556db4d51'),
    ('matchings rect:4,8', 'pretty'):
        (0, '0308d51d823f2738e25373aba3982bc2d1d9b942479487d1999f795aa3492a6e'),
    ('matchings rect:4,8', 'json'):
        (0, '2d04980cb71ab12f0414961e96b7746117e1923487bc84c4b1994f2b3113286f'),
    ('matchings rect:4,8', 'csv'):
        (0, '6a98ccdfe6c8031f37486f06f8a6dc8fd8ba42c84d9e1d5938137653e99a9bd9'),
}

# A partition function's variables are the model's edges and a flow
# polynomial's its faces, each in its one order: these pin both orders and
# the exponents read off the edge masks and the packed face weights, and the
# valuation, the flow polynomial's leading exponent.
POLYNOMIALS = {
    ('partition rect:3,7 146', 'pretty'):
        (0, '15d6be23689e3463cd75d94c509102bbe3ae42d8a509a1e125e3ade95ef2a755'),
    ('partition rect:3,7 146', 'json'):
        (0, '78157f4a46f667d69716d7c32b33a11dc7c8a8e4bd64948a346fa69c8f5c74bc'),
    ('partition rect:3,7 146', 'csv'):
        (0, 'e0dcc22e74894a16906f560e2abd7f073c720e2988e1660c8de5269e1fddc23c'),
    ('flow rect:3,7 146', 'pretty'):
        (0, '5bbba8d3d6917b96526cec37b8ff455e0d876f0fedf4b664d3266d3bae192113'),
    ('flow rect:3,7 146', 'json'):
        (0, '23c523859ceb62706d4c4e0c4cd688464c5033f54d9bec83569cd86099f3b323'),
    ('flow rect:3,7 146', 'csv'):
        (0, '1efa5f9260a374fe36e3ca9609eb8548a3baa4680623844df4ce48add559722b'),
    ('valuation rect:3,7 146', 'pretty'):
        (0, '943bcbe16fffbcd36187c0b144b9802535d20d8779143be882fc082fedf5a3be'),
    ('valuation rect:3,7 146', 'json'):
        (0, '06691a6f09942c2d711d2b1e8073d3ba26c4322d9b59d4a6202e80f315583cbe'),
}

# The seed layer past n = 9: a kappa vector over the rectangles seed of
# (3,11) and the valuation that must equal it, a three-step label exchange
# at (4,10), the level-1 points of (3,7), and a two-step potential mutation
# at (3,10).
PAST_NINE = {
    ('kappa rect:3,11 2,5,10', 'pretty'):
        (0, '253ba7e26cd99a7245f755c20f3dcbf6b6b3020230b842cda482233b653b84dc'),
    ('kappa rect:3,11 2,5,10', 'json'):
        (0, 'cff001f9d4965584d0d2716e9ebb7eaa84a69b3da6255be6cf8c814589c83d77'),
    ('valuation rect:3,11 2,5,10', 'pretty'):
        (0, 'b71e33926a5b637dc1a25fe02e6a41924790a8d28c817067b60aff6fdf5babad'),
    ('valuation rect:3,11 2,5,10', 'json'):
        (0, '4778cf46f7175ac92150f3ba03593f0e06c54f77e2e8a8e8212661e0a1cc9ee9'),
    ('mutate rect:4,10 --mutations 1,2,3,9,1,2,4,5,1,2,8,9', 'json'):
        (0, '8b185c812e5c3b01a951f7f8c06ab5a2d4c15a5efe27c92be157003cc49f3cbc'),
    ('no-body rect:3,7', 'json'):
        (0, 'c230d5abdc0e0f4ffd2c5a99fd8ed56db8da5dc9be1bc92c1d5bf601125adda1'),
    ('superpotential --kn 3,10 --mutations 1,2,8,1,2,9', 'pretty'):
        (0, '16775a763f7e567f18f21fedc015cc99f385b915e738fd5528b75eb2fdfc0c4a'),
    ('superpotential --kn 3,10 --mutations 1,2,8,1,2,9', 'json'):
        (0, '1dc572005ada1e01af544cbeddcf4aa79b48891300cf66a74b1d17a3904e9176'),
}

# gt-cone without --level prints the cone's inequalities; as CSV, a header
# of the ambient coordinates and one row of coefficients each.
CONES = {
    ('gt-cone --kn 2,5', 'csv'):
        (0, 'e3511fd678df6c671f4151aac00d81df74db5fcb117775e2f58a03328278dd8d'),
}

# All eight verify suites on the ladder's rungs past README's (2,5), in
# every format: the PASS details name the square moves and seed mutations
# each walk made, in the order it made them.
VERIFY_LADDER = {
    ('verify all --kn 3,6', 'pretty'):
        (0, 'a5986dadc7292f8e42a981da14331726e6e70220eeeee0a81bcc1ab92be4ae56'),
    ('verify all --kn 3,6', 'json'):
        (0, 'ee57535f5b742bd6fda4ae6da8ed4ce82da26640d0c822b4562a756fb23c7f19'),
    ('verify all --kn 3,6', 'csv'):
        (0, '05e7fa5d1a70732ed5ac60306fe21317dffe769464f5a6a2fa6cf8013acc6a81'),
    ('verify all --kn 3,7', 'pretty'):
        (0, 'fa97a13751b3f9ef2cead6ae8a40593219f7c086f93d4898e250753b7c91bb0e'),
    ('verify all --kn 3,7', 'json'):
        (0, '002aafa213547c05799cd13a3e3b3e355c1bd0a840eebbf03026ad9fd43a4fba'),
    ('verify all --kn 3,7', 'csv'):
        (0, 'a3f4383ca840ba4f4f405d8bb0fff2cd98885b81427ad68fbad4e6d4ee4e8a13'),
    ('verify all --kn 4,8', 'pretty'):
        (0, '110236f99bc2b02887c5fdd578e01c871577fd9ec626ea3c546ef01bad6a63ad'),
    ('verify all --kn 4,8', 'json'):
        (0, '44918df26e64033396cd16fc32b1ca5fe8ace76e1d869b776cd94772c69c5fe7'),
    ('verify all --kn 4,8', 'csv'):
        (0, '077e9efaa7cbd29c27ae4e91d407a832a79ad771231e96331e736abf76f1b6a5'),
}

# The square move at 134 of rect:3,7 adds edges named leg_* and sq_*; the
# CSV header of a partition function of the moved model, saved and loaded
# back, lists them in the one edge order; its valuation reads the moved
# model's faces.
MOVED_FACE = (1, 3, 4)
MOVED_PARTITION = {
    ('partition', '146', 'csv'):
        (0, '5199e922ad37842d8c6b60749148e1e198f758c755fff9a9a66325e618cd20dc'),
    ('valuation', '146', 'pretty'):
        (0, 'f4c5e0ba78eed85ce5ba9b28a59cfa1acdc0940075f08735d6897ad4cb60b350'),
    ('valuation', '146', 'json'):
        (0, '190620df0a619311ec9a59cd9c17df32910315deba7ba8a04955a1a62375d747'),
}


def readme_commands() -> list[str]:
    """The ``plabicflow ...`` lines of README's CLI block, comments cut."""
    with open(README) as fh:
        text = fh.read()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    out = []
    for line in block.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("plabicflow "):
            out.append(line[len("plabicflow "):])
    return out


def run_hashed(command: str, fmt: str) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(shlex.split(command) + ["--format", fmt])
    return rc, hashlib.sha256(buf.getvalue().encode()).hexdigest()


def test_every_readme_command_is_pinned():
    commands = readme_commands()
    assert len(commands) == 13
    assert sorted((c, f) for c in commands for f in FORMATS) == sorted(GOLDEN)


@pytest.mark.parametrize("command,fmt", sorted(GOLDEN))
def test_output_is_byte_identical(command, fmt):
    assert run_hashed(command, fmt) == GOLDEN[command, fmt]


@pytest.mark.parametrize("command,fmt", sorted(EXCHANGE_PATHS))
def test_exchange_path_is_byte_identical(command, fmt):
    assert run_hashed(command, fmt) == EXCHANGE_PATHS[command, fmt]


@pytest.mark.parametrize("command,fmt", sorted(A_CHAINS))
def test_a_mutation_chain_is_byte_identical(command, fmt):
    assert run_hashed(command, fmt) == A_CHAINS[command, fmt]


@pytest.mark.parametrize("command,fmt", sorted(MATCHINGS))
def test_matching_listing_is_byte_identical(command, fmt):
    assert run_hashed(command, fmt) == MATCHINGS[command, fmt]


@pytest.mark.parametrize("command,fmt", sorted(POLYNOMIALS))
def test_polynomial_is_byte_identical(command, fmt):
    assert run_hashed(command, fmt) == POLYNOMIALS[command, fmt]


@pytest.mark.parametrize("command,fmt", sorted(PAST_NINE))
def test_seed_command_past_nine_is_byte_identical(command, fmt):
    assert run_hashed(command, fmt) == PAST_NINE[command, fmt]


@pytest.mark.parametrize("command,fmt", sorted(CONES))
def test_cone_csv_is_byte_identical(command, fmt):
    assert run_hashed(command, fmt) == CONES[command, fmt]


@pytest.mark.parametrize("command,fmt", sorted(VERIFY_LADDER))
def test_verify_ladder_is_byte_identical(command, fmt):
    assert run_hashed(command, fmt) == VERIFY_LADDER[command, fmt]


def moved_partition_hashes(directory) -> dict:
    """``MOVED_PARTITION``'s commands run on the square-moved model, saved
    to a file in ``directory``."""
    path = os.path.join(directory, "moved.plabic")
    with open(path, "w") as fh:
        fh.write(plabic.save_model(
            plabic.square_move(plabic.build_rectangles_model(3, 7), MOVED_FACE)))
    return {(cmd, subset, fmt): run_hashed(f"{cmd} {path} {subset}", fmt)
            for cmd, subset, fmt in MOVED_PARTITION}


def test_moved_model_partition_is_byte_identical(tmp_path):
    assert moved_partition_hashes(str(tmp_path)) == MOVED_PARTITION


def print_table(name, pins):
    print(f"{name} = {{")
    for command, fmt in pins:
        rc, digest = run_hashed(command, fmt)
        print(f"    ({command!r}, {fmt!r}):\n        ({rc}, {digest!r}),")
    print("}")


if __name__ == "__main__":
    print_table("GOLDEN", [(c, f) for c in readme_commands() for f in FORMATS])
    print_table("EXCHANGE_PATHS", list(EXCHANGE_PATHS))
    print_table("A_CHAINS", list(A_CHAINS))
    print_table("MATCHINGS", list(MATCHINGS))
    print_table("POLYNOMIALS", list(POLYNOMIALS))
    print_table("PAST_NINE", list(PAST_NINE))
    print_table("CONES", list(CONES))
    print_table("VERIFY_LADDER", list(VERIFY_LADDER))
    with tempfile.TemporaryDirectory() as directory:
        print(f"MOVED_PARTITION = {moved_partition_hashes(directory)!r}")
