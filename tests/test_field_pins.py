"""Pins of everything built from a finite field.

The modulus and primitive element of each GF(q), and the generator images
of the linear and affine groups built on them, are compared against fixed
values: a change to the field code must keep every one byte-identical.
Each group is pinned by the sha256 of its generators' 0-based image lists,
comma-joined per generator and semicolon-joined across generators.
"""

import hashlib

import pytest

from rackforge.constructions import affine_frobenius_group, psl_permutation_group
from rackforge.gf import make_field, primitive_element

PSL_DIGESTS = {
    (2, 2): '02fceacec5b77258c50600ef712af5e3c55ca60d366b318a201dedbfb4825f98',
    (2, 3): 'c64f7a6d842ed900da74f3158baec1b9d2ee5106fd0547826ff6ea9f329df576',
    (2, 4): '8876786c25a923084226d0a604da250e6d60a1dc7040d00d41f10bde465510f0',
    (2, 5): '3ed5f8fa0d166e8923bd1c6f0b83f4cc036c57b56cfcf098024c1fc1833b7573',
    (2, 7): 'a2a55db36584d5140566e97d70e26d8c51246d0fca272e8ff6e6d29a148ffdf3',
    (2, 8): 'c6837c60ec9a482509cfde64db89abff0d1292715395cf253f90579f9ff9fe0b',
    (2, 9): '363fc9ac68360ca04778b744cb7d8b5acbf14adff247966339f685f46eb756e7',
    (2, 11): 'de8c0b7cb0d7be64cac23819fa78e02f2a1b4ac341c5e317401a2cddffad0dcc',
    (2, 13): '9319ea4134288285cd0b436c260fdf2c3bf3fd98c79d18a23f1748ad2713381d',
    (2, 16): '22869518b80ce751eb734736321fd97578d530004a5ea17dfcc112883353eff2',
    (2, 17): 'b1fdc49b459544272b81235d3ab7d1e55ec34da53fd76ec4594600543c408c89',
    (2, 19): '846285f2db1be46b0c81ad42dbf3ae72208752eb04d81e22aea05befb281ae73',
    (2, 23): '460c165caa7b62b3bb19476937a0321ad3c35094a179a96ddf6205ce46a0dbb2',
    (2, 25): 'cd72886a7b844b558ebb9df9f13bd659812db43ad2b915ddaa2ac4e76a959989',
    (2, 27): 'd96ceb732421b7ae4a38358c25317f08358db99afa22f1eaf92f5c179168d22e',
    (3, 2): '1fbcf331ac38b704b807aa632462fd83ef180817a56e031a4ba6af9d4c5ae767',
    (3, 3): '50ae4b39aa9f7c44219b1df5aaf0b6948adda892614588997cf55bd94dc1b47b',
    (3, 4): '3fd9d08f9fbe7f8d5aea4a5e18f21ed4183166cf48bb383fc33501caa173b9cf',
    (4, 2): '25ebf415d315c284ce0a03d9a4c4a65c13787cb6817a1333cff1cf8b24979445',
    (5, 2): 'd87de23e90c523178c6a3ca8dc8992643aff19df6db6f04e6f48177e07b10ce2',
    (3, 5): 'dc2c1a78c9b50e677d79bd04072579fd82187d436ff12617a3286bb7a12104f8',
}
FROBENIUS_DIGESTS = {
    2: '4ab827dce4b4feb4a51b6a614cabe9f04ce6bb682fd856f3158e23dab5f4cfaa',
    3: 'ccf4e5f34d77aa857a0cfba4619fc286de2caa57a39cf019b79ee92ea71496d6',
    4: 'b358fc826d6195ce4612dfb27516bf2522a27744bbd0d76edb7b438c0c24b040',
    5: '32d23260d1285f0a34ab5f2e63a1bca47cd962dc763ba8468e5604380d24c5fe',
    6: 'f8a6bf9dc72da44685e889d840bd9345e0e2d29c6fa618cc16f5f6b72a2ea5a9',
    7: 'f9fef9ca73793b949bddd2decf7eaee825ce7396386074a0a0405d8e33f85648',
}
# q: (modulus, code of the primitive element)
FIELDS = {
    2: ('x', 1),
    3: ('x', 2),
    4: ('x^2 + x + 1', 2),
    5: ('x', 2),
    7: ('x', 3),
    8: ('x^3 + x + 1', 2),
    9: ('x^2 + 1', 4),
    16: ('x^4 + x + 1', 2),
    25: ('x^2 + 2', 6),
    27: ('x^3 + 2x + 1', 3),
    32: ('x^5 + x^2 + 1', 2),
    49: ('x^2 + 1', 9),
    64: ('x^6 + x + 1', 2),
    81: ('x^4 + x + 2', 3),
    125: ('x^3 + x + 1', 9),
    128: ('x^7 + x + 1', 2),
    243: ('x^5 + 2x + 1', 3),
    256: ('x^8 + x^4 + x^3 + x + 1', 3),
}


def _digest(group):
    text = ";".join(",".join(map(str, g.images)) for g in group.generators)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("k,r", sorted(PSL_DIGESTS))
def test_psl_generators_are_pinned(k, r):
    assert _digest(psl_permutation_group(k, r)) == PSL_DIGESTS[k, r]


@pytest.mark.parametrize("h", sorted(FROBENIUS_DIGESTS))
def test_frobenius_generators_are_pinned(h):
    assert _digest(affine_frobenius_group(h)) == FROBENIUS_DIGESTS[h]


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_modulus_and_primitive_element_are_pinned(q):
    field = make_field(q)
    assert (field.modulus_string(), primitive_element(field)) == FIELDS[q]
