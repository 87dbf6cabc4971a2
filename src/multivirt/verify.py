"""Mechanical verification of the multiplexing identities.

For a knot diagram D with writhe table J and its r-fold multiplex
L = K_1 u ... u K_r, four families of identities are checked between
independently computed quantities:

  linking      lk(K_i, K_j) = sum of J_n over n = i - j (mod r), i != j
  self_writhe  the component writhe tables of L equal J on multiples of r
               and vanish elsewhere (n != 0)
  components   every extracted component equals the r-fold covering of D up
               to basepoint and crossing ids: its passage code (`model._code`)
               is a rotation of the covering's
  colorings    for r = 2, the virtual coloring count of D equals the
               constrained coloring count of L for each modulus, re-checked
               by brute-force enumeration and the explicit pairing map
               whenever the search space allows

Each check is a function that returns "" when its identity holds and
otherwise the first failure it meets, as one line of text.  The per-r
checks take (d, J, r), with J the writhe table of D, and the coloring check
takes (d, moduli).  `verify_theorems` turns every answer into a
`CheckResult` in one place.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import permutations

from . import catalog
from .colorings import (
    ColoringMode,
    _modulus,
    build_system,
    count_colorings,
    enumerate_colorings,
    is_solution,
    pairing_map,
)
from .constructions import _fold, covering, extract_component, multiplex
from .errors import MultivirtError, TooLarge, ValidationError, checked, iterated
from .invariants import WritheTable, invariant_report, linking_and_lambda, n_writhes
from .model import Diagram, _code, serialize_vgc

THEOREMS = ("linking", "self_writhe", "components", "colorings")


@dataclass
class CheckResult:
    fixture: str
    theorem: str
    r: int
    ok: bool
    detail: str = ""

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class VerifyReport:
    results: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def to_json(self) -> dict:
        return {"ok": self.ok, "results": [r.to_json() for r in self.results]}


# Brute-force enumeration re-checks a count only below this many assignments.
ENUM_LIMIT = 10**6


def _linking(d: Diagram, J: WritheTable, r: int) -> str:
    rep = linking_and_lambda(multiplex(d, r)[0])
    by_class = [0] * r  # the sum of J_n over each residue class of n mod r
    for n, v in J.entries.items():
        by_class[n % r] += v
    for i, j in permutations(range(r), 2):
        expect = by_class[(i - j) % r]
        if rep.lk[i][j] != expect:
            return f"lk[{i+1}][{j+1}] = {rep.lk[i][j]}, expected {expect}"
    if any(rep.lam):
        return f"lambda = {rep.lam}, expected zeros"
    return ""


def _self_writhe(d: Diagram, J: WritheTable, r: int) -> str:
    for cw in invariant_report(multiplex(d, r)[0]).jni:
        got = cw.table.entries
        for n in set(got) | set(J.entries):
            expect = J.entries.get(n, 0) if n % r == 0 else 0
            if n != 0 and got.get(n, 0) != expect:
                return f"component {cw.component}: J_{n} = {got.get(n, 0)}, expected {expect}"
    return ""


def _components(d: Diagram, J: WritheTable, r: int) -> str:
    # Equal canonical forms, tested as a rotation of the passage code.
    L, _ = multiplex(d, r)
    want = "".join(_code(covering(d, r)))
    twice = want + want
    for i in range(1, r + 1):
        got = "".join(_code(extract_component(L, i)))
        if len(got) != len(want) or twice.find(got) < 0:
            return f"component {i} differs from the covering"
    return ""


def _colorings(d: Diagram, moduli) -> str:
    L2, prov = multiplex(d, 2)
    vsys = build_system(d, ColoringMode.VIRTUAL_FOX)
    csys = build_system(L2, ColoringMode.CONSTRAINED, prov)
    pair = pairing_map(vsys, L2, prov)
    for n in moduli:
        a = count_colorings(vsys, n)
        b = count_colorings(csys, n)
        if a != b:
            return f"n={n}: {a} virtual vs {b} constrained"
        try:
            sols = enumerate_colorings(vsys, n, ENUM_LIMIT)
        except TooLarge:
            continue
        if len(sols) != a:
            return f"n={n}: enumeration found {len(sols)}, not {a}"
        images = [pair(c) for c in sols]
        if len({im.values for im in images}) != len(images):
            return f"n={n}: pairing map not injective"
        if not all(is_solution(csys, im) for im in images):
            return f"n={n}: pairing image leaves the constrained set"
        try:
            constrained = enumerate_colorings(csys, n, ENUM_LIMIT)
        except TooLarge:
            continue
        if len(constrained) != len(images):
            return f"n={n}: image size {len(images)} vs constrained {len(constrained)}"
    return ""


# The checks run once per r, in this order.
_PER_R = {"linking": _linking, "self_writhe": _self_writhe, "components": _components}


def verify_theorems(
    names=None,
    r_range=(2, 3, 4, 5),
    n_range=(2, 3, 4, 5, 6, 7, 8, 9),
    theorems=THEOREMS,
) -> VerifyReport:
    """Run the identity checks for every named knot fixture.

    A fixture is a catalog name or a `Diagram`, reported by its VGC text; all
    catalog knots are used by default; a `Diagram` is checked when it is
    made, so a fixture is a valid diagram.  Raises ValidationError for an
    argument that is not an iterable, a fixture of another kind, or an
    unknown theorem, and MultivirtError for a non-knot fixture.  A `str` or
    `bytes` is refused for every argument, not read as its characters.
    Before any check runs, every r is read as the int it equals or refused
    with BadR unless it is an integer >= 2, when a per-r theorem is asked
    for, and every modulus likewise with BadModulus unless it is an integer
    >= 1, when `colorings` is."""
    names = catalog.KNOT_NAMES if names is None else iterated(names, "names", "names")
    r_range, n_range = iterated(r_range, "r_range", "ints"), iterated(n_range, "n_range", "ints")
    theorems = iterated(theorems, "theorems", "theorem names", set)
    unknown = theorems - set(THEOREMS)
    if unknown:
        raise ValidationError(
            f"unknown theorems {sorted(map(repr, unknown))}; known: {', '.join(THEOREMS)}"
        )
    per_r = [(thm, check) for thm, check in _PER_R.items() if thm in theorems]
    r_range = tuple(_fold(r, 2) for r in r_range) if per_r else ()
    n_range = tuple(map(_modulus, n_range)) if "colorings" in theorems else ()
    report = VerifyReport()
    for name in names:
        if isinstance(name, str):
            d, label = catalog.diagram(name), name
        else:
            d = checked(name, Diagram, ValidationError, "a fixture other than a name")
            label = serialize_vgc(d)
        if d.n_components() != 1:
            raise MultivirtError(f"fixture {label!r} is not a knot")
        # The coloring check runs first, so that the r = 2 checks reuse the
        # 2-fold multiplex that `multiplex` keeps; its result still comes last.
        last = [("colorings", 2, _colorings(d, n_range))] if "colorings" in theorems else []
        J = n_writhes(d)
        checks = [(thm, r, check(d, J, r)) for r in r_range for thm, check in per_r]
        for thm, r, detail in checks + last:
            report.results.append(CheckResult(label, thm, r, not detail, detail))
    return report
