import pytest

from multivirt.errors import MultivirtError, ValidationError
from multivirt.model import parse_vgc
from multivirt.verify import verify_theorems


class TestVerifyArguments:
    @pytest.mark.parametrize("theorems", [("nope",), ("linking", "nope"), "linking", [["linking"]]])
    def test_unknown_theorem_rejected(self, theorems):
        with pytest.raises(ValidationError):
            verify_theorems(names=["kink"], r_range=(2,), theorems=theorems)

    @pytest.mark.parametrize(
        "kwargs",
        [{"theorems": None}, {"r_range": 5}, {"n_range": 5}, {"names": 5}],
    )
    def test_non_iterable_argument_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            verify_theorems(**{"names": ["kink"], "r_range": (2,), **kwargs})

    @pytest.mark.parametrize("name", [5, None, ("kink",)])
    def test_fixture_of_another_kind_rejected(self, name):
        with pytest.raises(ValidationError):
            verify_theorems(names=[name], r_range=(2,))

    def test_links_are_still_refused(self):
        with pytest.raises(MultivirtError, match="not a knot"):
            verify_theorems(names=["vhopf"], r_range=(2,))

    def test_diagram_and_name_fixtures_agree(self):
        by_name = verify_theorems(names=["kink"], r_range=(2, 3), n_range=(2, 3))
        by_value = verify_theorems(
            names=[parse_vgc("O1+ U1+")], r_range=(2, 3), n_range=(2, 3)
        )
        assert by_name.ok and by_value.ok
        assert [(r.theorem, r.r) for r in by_name.results] == [
            (r.theorem, r.r) for r in by_value.results
        ]
