"""Byte pins for the ``apoly v1`` text of every knot fraction with q <= 17,
and of the ladder knots 8/63 and 10/99, J(8, 8) and J(10, 10).

Each digest is the first 16 hex digits of the SHA-256 of
``format_apoly(a_polynomial(p/q).poly)``.  A refactor of the exact
arithmetic or of either elimination engine must leave these bytes alone.
"""

import hashlib
from fractions import Fraction

from tbk.charvar import a_polynomial
from tbk.exactnum import format_apoly

APOLY_V1_DIGESTS = {
    "1/3": "194606deacf4d822",
    "2/3": "8642edabe4d579f9",
    "1/5": "bf676ea6ec5e506d",
    "2/5": "d048eece0abb6c21",
    "3/5": "d048eece0abb6c21",
    "4/5": "36eb7c924131f78a",
    "1/7": "28ee2209a783cbcd",
    "2/7": "2a07b18f8a1f65ff",
    "3/7": "607b72ebe9c4d2a8",
    "4/7": "2a07b18f8a1f65ff",
    "5/7": "607b72ebe9c4d2a8",
    "6/7": "1f62f3189bc9a345",
    "1/9": "abbd9d736d3e7693",
    "2/9": "dc4637ef19aef1bb",
    "4/9": "043b8529e2b14d91",
    "5/9": "dc4637ef19aef1bb",
    "7/9": "043b8529e2b14d91",
    "8/9": "3475dfeb3d28f672",
    "1/11": "41d3716c23f13f74",
    "2/11": "e0dc5aac967befbe",
    "3/11": "21966b74c749e12b",
    "4/11": "21966b74c749e12b",
    "5/11": "7701f0a2424de387",
    "6/11": "e0dc5aac967befbe",
    "7/11": "1051beb4543aa451",
    "8/11": "1051beb4543aa451",
    "9/11": "7701f0a2424de387",
    "10/11": "bf135109b284d1f0",
    "1/13": "3c68e8978574eef8",
    "2/13": "310ec05cf3600ea3",
    "3/13": "5363a7a47d5e79ca",
    "4/13": "de831ba81947ae94",
    "5/13": "8321c1d5213dd8b6",
    "6/13": "b7fe1a00e47507f2",
    "7/13": "310ec05cf3600ea3",
    "8/13": "8321c1d5213dd8b6",
    "9/13": "5363a7a47d5e79ca",
    "10/13": "de831ba81947ae94",
    "11/13": "b7fe1a00e47507f2",
    "12/13": "860a9ac7912f8a58",
    "1/15": "e95a04e7a1662ec7",
    "2/15": "eb5e2ecf2db1d4db",
    "4/15": "73a28ccfd73129d6",
    "7/15": "84f8ca0ba480625f",
    "8/15": "eb5e2ecf2db1d4db",
    "11/15": "8bc1812caedbe104",
    "13/15": "84f8ca0ba480625f",
    "14/15": "b9abff88c347a222",
    "1/17": "f98527cb38087a56",
    "2/17": "1470a7e812ec6846",
    "3/17": "67fb8ca3ba453337",
    "4/17": "77b20da2fdfefc04",
    "5/17": "becf7e3ce42224be",
    "6/17": "67fb8ca3ba453337",
    "7/17": "becf7e3ce42224be",
    "8/17": "1639a5527e4d8755",
    "9/17": "1470a7e812ec6846",
    "10/17": "75ac919e320dbc1c",
    "11/17": "8a3595750aefb2e4",
    "12/17": "75ac919e320dbc1c",
    "13/17": "77b20da2fdfefc04",
    "14/17": "8a3595750aefb2e4",
    "15/17": "1639a5527e4d8755",
    "16/17": "1ff672b654fbbd12",
    "8/63": "a10d89cd4112292e",
    "10/99": "697cba30e54d9429",
}


def _digest(pq):
    text = format_apoly(a_polynomial(Fraction(pq)).poly)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_apoly_v1_bytes_default_rule():
    assert len(APOLY_V1_DIGESTS) == 66
    changed = [pq for pq, d in APOLY_V1_DIGESTS.items() if _digest(pq) != d]
    assert not changed, changed


def test_apoly_v1_bytes_every_factor_direct(monkeypatch):
    # the direct engine alone reproduces the table for q <= 13
    from tbk.charvar import apoly

    monkeypatch.setattr(apoly, "_DIRECT_MAX_DEGREE", 10 ** 9)
    small = [pq for pq in APOLY_V1_DIGESTS if Fraction(pq).denominator <= 13]
    assert len(small) == 40
    changed = [pq for pq in small if _digest(pq) != APOLY_V1_DIGESTS[pq]]
    assert not changed, changed
