import pytest

from multivirt import catalog
from multivirt.invariants import linking_and_lambda, n_writhes, writhe
from multivirt.model import parse_vgc, serialize_vgc
from multivirt.planar import genus


@pytest.mark.parametrize("name", catalog.names())
def test_entry_health(name):
    entry = catalog.get(name)
    d = parse_vgc(entry.code)
    d.validate()
    assert parse_vgc(serialize_vgc(d)) == d
    assert genus(d) == 0


def test_expected_structure():
    assert catalog.diagram("unknot").n_passages() == 0
    vt = catalog.diagram("vtrefoil")
    assert (vt.n_real(), vt.n_virtual()) == (2, 1)
    ki = catalog.diagram("kishino")
    assert (ki.n_real(), ki.n_virtual()) == (4, 2)


def test_recorded_writhe_tables():
    assert n_writhes(catalog.diagram("trefoil")).entries == {}
    assert n_writhes(catalog.diagram("figure8")).entries == {}
    assert writhe(catalog.diagram("figure8")) == 0
    assert n_writhes(catalog.diagram("vtrefoil")).entries == {1: 1, -1: 1}
    assert n_writhes(catalog.diagram("kishino")).entries == {}
    assert n_writhes(catalog.diagram("index2")).entries == {-2: 1, 2: 1}
    assert n_writhes(catalog.diagram("asym3")).entries == {-1: 1, 1: -1, 2: 1}
    assert linking_and_lambda(catalog.diagram("vhopf")).lam == (-1, 1)


def test_knot_names_excludes_links():
    assert "vhopf" not in catalog.KNOT_NAMES
    assert set(catalog.KNOT_NAMES) < set(catalog.names())


def test_unknown_entry():
    from multivirt.errors import MultivirtError

    for name in ("nope", None, [1]):
        with pytest.raises(MultivirtError, match="no catalog entry named"):
            catalog.get(name)
        with pytest.raises(MultivirtError, match="no catalog entry named"):
            catalog.diagram(name)
