"""Mechanical verification of the multiplexing identities.

For a knot diagram D with writhe table J and its r-fold multiplex
L = K_1 u ... u K_r, four families of identities are checked between
independently computed quantities:

  linking      lk(K_i, K_j) = sum of J_n over n = i - j (mod r), i != j
  self_writhe  the component writhe tables of L equal J on multiples of r
               and vanish elsewhere (n != 0)
  components   every extracted component equals the r-fold covering of D,
               as canonical strings
  colorings    for r = 2, the virtual coloring count of D equals the
               constrained coloring count of L for each modulus, re-checked
               by brute-force enumeration and the explicit pairing map
               whenever the search space allows
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import catalog
from .colorings import (
    ColoringMode,
    build_system,
    count_colorings,
    enumerate_colorings,
    is_solution,
    psi,
)
from .constructions import covering, extract_component, multiplex
from .errors import MultivirtError, TooLarge, ValidationError, checked
from .invariants import WritheTable, invariant_report, linking_and_lambda, n_writhes
from .model import Diagram, canonical_form

THEOREMS = ("linking", "self_writhe", "components", "colorings")


@dataclass
class CheckResult:
    fixture: str
    theorem: str
    r: int
    ok: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "fixture": self.fixture,
            "theorem": self.theorem,
            "r": self.r,
            "ok": self.ok,
            "detail": self.detail,
        }


@dataclass
class VerifyReport:
    results: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def to_json(self) -> dict:
        return {"ok": self.ok, "results": [r.to_json() for r in self.results]}


def _check_linking(name: str, d: Diagram, J: WritheTable, r: int) -> CheckResult:
    L, _ = multiplex(d, r)
    rep = linking_and_lambda(L)
    for i in range(r):
        for j in range(r):
            if i == j:
                continue
            expect = sum(v for n, v in J.entries.items() if (n - (i - j)) % r == 0)
            if rep.lk[i][j] != expect:
                return CheckResult(
                    name, "linking", r, False,
                    f"lk[{i+1}][{j+1}] = {rep.lk[i][j]}, expected {expect}",
                )
    if any(v != 0 for v in rep.lam):
        return CheckResult(name, "linking", r, False, f"lambda = {rep.lam}, expected zeros")
    return CheckResult(name, "linking", r, True)


def _check_self_writhe(name: str, d: Diagram, J: WritheTable, r: int) -> CheckResult:
    L, _ = multiplex(d, r)
    for cw in invariant_report(L).jni:
        i, table = cw.component, cw.table
        support = set(table.entries) | set(J.entries)
        for n in support:
            if n == 0:
                continue
            expect = J.entries.get(n, 0) if n % r == 0 else 0
            if table.entries.get(n, 0) != expect:
                return CheckResult(
                    name, "self_writhe", r, False,
                    f"component {i}: J_{n} = {table.entries.get(n, 0)}, expected {expect}",
                )
    return CheckResult(name, "self_writhe", r, True)


def _check_components(name: str, d: Diagram, r: int) -> CheckResult:
    L, _ = multiplex(d, r)
    want = canonical_form(covering(d, r))
    for i in range(1, r + 1):
        got = canonical_form(extract_component(L, i))
        if got != want:
            return CheckResult(
                name, "components", r, False, f"component {i} differs from the covering"
            )
    return CheckResult(name, "components", r, True)


def _check_colorings(
    name: str, d: Diagram, moduli, enum_limit: int = 10**6
) -> CheckResult:
    L2, prov = multiplex(d, 2)
    vsys = build_system(d, ColoringMode.VIRTUAL_FOX)
    csys = build_system(L2, ColoringMode.CONSTRAINED, prov)
    for n in moduli:
        a = count_colorings(vsys, n)
        b = count_colorings(csys, n)
        if a != b:
            return CheckResult(
                name, "colorings", 2, False, f"n={n}: {a} virtual vs {b} constrained"
            )
        try:
            sols = enumerate_colorings(vsys, n, enum_limit)
        except TooLarge:
            continue
        if len(sols) != a:
            return CheckResult(
                name, "colorings", 2, False, f"n={n}: enumeration found {len(sols)}, not {a}"
            )
        images = [psi(d, c, L2, prov) for c in sols]
        if len({im.values for im in images}) != len(images):
            return CheckResult(name, "colorings", 2, False, f"n={n}: pairing map not injective")
        if not all(is_solution(csys, im) for im in images):
            return CheckResult(
                name, "colorings", 2, False, f"n={n}: pairing image leaves the constrained set"
            )
        try:
            constrained = enumerate_colorings(csys, n, enum_limit)
            if len(constrained) != len(images):
                return CheckResult(
                    name, "colorings", 2, False,
                    f"n={n}: image size {len(images)} vs constrained {len(constrained)}",
                )
        except TooLarge:
            pass
    return CheckResult(name, "colorings", 2, True)


def verify_theorems(
    names=None,
    r_range=(2, 3, 4, 5),
    n_range=(2, 3, 4, 5, 6, 7, 8, 9),
    theorems=THEOREMS,
) -> VerifyReport:
    """Run the identity checks for every named knot fixture.

    A fixture is a catalog name or a `Diagram`; all catalog knots are used by
    default.  Raises ValidationError for an argument that is not an iterable,
    a fixture of another kind or an unknown theorem, and MultivirtError for a
    non-knot fixture."""
    try:
        theorems = set(theorems)
        r_range, n_range = tuple(r_range), tuple(n_range)
        names = catalog.KNOT_NAMES if names is None else tuple(names)
    except TypeError:
        raise ValidationError(
            "names, r_range, n_range and theorems must be iterables"
        ) from None
    unknown = theorems - set(THEOREMS)
    if unknown:
        raise ValidationError(
            f"unknown theorems {sorted(map(repr, unknown))}; known: {', '.join(THEOREMS)}"
        )
    report = VerifyReport()
    for name in names:
        if isinstance(name, str):
            d = catalog.diagram(name)
        else:
            d = checked(name, Diagram, ValidationError, "a fixture other than a name")
        if d.n_components() != 1:
            raise MultivirtError(f"fixture {name!r} is not a knot")
        J = n_writhes(d)
        for r in r_range:
            if "linking" in theorems:
                report.results.append(_check_linking(name, d, J, r))
            if "self_writhe" in theorems:
                report.results.append(_check_self_writhe(name, d, J, r))
            if "components" in theorems:
                report.results.append(_check_components(name, d, r))
        if "colorings" in theorems:
            report.results.append(_check_colorings(name, d, n_range))
    return report
