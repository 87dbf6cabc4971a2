"""Built-in fixture diagrams.

Every knot entry is genus 0 (validated by the test suite).  The two entries
tagged `realized` were produced once by `planar.realize` from an abstract
over/under word and frozen, so the catalog does not depend on the layout
algorithm staying byte-stable.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .errors import MultivirtError
from .model import Diagram, parse_vgc


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    code: str
    notes: str

    def diagram(self) -> Diagram:
        return parse_vgc(self.code)

    def to_json(self) -> dict:
        return asdict(self)


_ENTRIES = (
    CatalogEntry("unknot", ".", "crossing-free circle"),
    CatalogEntry("kink", "O1+ U1+", "one positive curl; classical unknot"),
    CatalogEntry(
        "trefoil",
        "O1+ U2+ O3+ U1+ O2+ U3+",
        "positive classical trefoil; writhe 3, all indices 0",
    ),
    CatalogEntry(
        "figure8",
        "O1+ U2+ O3- U4- O2+ U1+ O4- U3-",
        "classical figure eight; writhe 0, 25 five-colorings",
    ),
    CatalogEntry(
        "vtrefoil",
        "O1+ V3- O2+ U1+ V3- U2+",
        "virtual trefoil: 2 real + 1 virtual crossing, writhe table {-1:1, +1:1}",
    ),
    CatalogEntry(
        "kishino",
        "V5- O1+ O2- V5- U1+ U2- V6- U3- U4+ V6- O3- O4+",
        "two virtualized clasps glued end to end (the standard Kishino shape): "
        "4 real + 2 virtual crossings, writhe table empty",
    ),
    CatalogEntry(
        "index2",
        "O1+ V5- O2+ V8- O3+ V10- V9+ V7- V6+ V4- V11+ U1+ V4- V6+ V5- "
        "U2+ V7- V9+ V8- U3+ V10- V11+",
        "realized from the abstract word O1+ O2+ O3+ U1+ U2+ U3+; "
        "writhe table {-2:1, +2:1}, exercising even index classes",
    ),
    CatalogEntry(
        "asym3",
        "O1+ V5- O2+ V8- V6+ V4- V15+ U1+ V4- V7- V9+ V12+ O3- V11+ V13- "
        "V10- V7- V6+ V5- U2+ V8- V9+ V10- V14+ V11+ U3- V12+ V13- V14+ V15+",
        "realized from the abstract word O1+ O2+ U1+ O3- U2+ U3-; "
        "asymmetric writhe table {-1:1, +1:-1, +2:1}, pinning congruence "
        "directions in the linking identities",
    ),
    CatalogEntry(
        "vhopf",
        "O1+ V2- ; U1+ V2-",
        "virtual Hopf link: lk(1,2)=1, lk(2,1)=0, lambda=(-1,+1)",
    ),
)

CATALOG: dict[str, CatalogEntry] = {e.name: e for e in _ENTRIES}

KNOT_NAMES = tuple(e.name for e in _ENTRIES if ";" not in e.code)


def names() -> tuple[str, ...]:
    return tuple(e.name for e in _ENTRIES)


def get(name: str) -> CatalogEntry:
    try:
        return CATALOG[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise MultivirtError(f"no catalog entry named {name!r}") from None


def diagram(name: str) -> Diagram:
    return get(name).diagram()
