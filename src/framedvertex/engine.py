"""Bracket table generation by the spectral-curve recursion.

The table stores exact values indexed by genus and a sorted tuple of
descendant indices.  Starting from the three-point and one-point seeds,
each stable cell (g, n) is produced from strictly lower-complexity cells
(complexity chi = 2g - 2 + n) by matching coefficients in the phi' basis,
in the scale where the brackets carry no power of f(f+1):

    sum_b bracket(g, b) prod_k phi'_{b_k}(t_k)
      =   f(f+1)       [genus-reduction sum with pair kernels]
        -              [stable-splitting sum with pair kernels]
        - (f(f+1))^-1  [point-kernel sum over companion slots]

The right side is symmetric in slots 1..n-1 by construction, whatever
the table holds: the genus-reduction sum reads every ordering of each
stored key, the splitting sum covers every subset of companion slots and
the companion sum every companion slot.  So each sum is formed only on
the slot-0 slice, at the keys (c,) + r with r sorted, and a contribution
carries the number of orderings that land there.  Each sum walks the
stored entries of its lower cell or cells once per distinct first entry,
so an absent (zero) bracket costs nothing; the loader refuses an entry
past its cell's support bound, so every stored entry belongs in the sums.
Every contribution w * dc is gathered unreduced (``tpoly.gather``), its
count of orderings as a plain integer weight, and each coefficient is
reduced once, by ``tpoly.sum_gathered``, before the extraction.

The right side distinguishes slot 0, so recovering values that are
symmetric under permutations of all slots is a strong consistency check:
with slots 1..n-1 symmetric, comparing the coefficients at (x, key - x)
over the distinct x of each key is full symmetry.  It is verified on
every extraction, as is the dimension bound sum(b) <= 3g - 3 + n.
"""

from __future__ import annotations

import json
from math import comb

from .errors import (DivisionByZero, MissingDependency,
                     SupportBoundViolation, SymmetryViolation, clip)
from .kernels import KernelWorkspace
from .ratfunc import FR_ONE, FR_ZERO, FRational
from .tpoly import TPolynomial, gather, sum_gathered

_F = FRational.variable()
_FF1 = _F * (_F + 1)  # f (f + 1)

FORMAT_NAME = "framedvertex-brackets"
FORMAT_VERSION = 1


def is_stable(g, n):
    return g >= 0 and n >= 1 and 2 * g - 2 + n > 0


def support_bound(g, n):
    return 3 * g - 3 + n


class BracketTable:
    """Map (genus, sorted index tuple) -> FRational, per computed cell.

    One store: ``_cells[(g, n)]`` maps each sorted index tuple of the cell
    to its value; an index tuple absent from a computed cell is zero.
    """

    def __init__(self):
        self._cells = {}

    def mark_cell(self, g, n, entries):
        self._cells[(g, n)] = {key: value for key, value in entries.items()
                               if not value.is_zero}

    def has_cell(self, g, n):
        return (g, n) in self._cells

    def cells(self):
        return sorted(self._cells, key=lambda c: (2 * c[0] - 2 + c[1], c[0]))

    @property
    def chi_max(self):
        return max((2 * g - 2 + n for g, n in self._cells), default=0)

    def value(self, g, indices):
        """Bracket value; zero inside a computed cell, error outside."""
        key = tuple(sorted(indices))
        return self._cell(g, len(key)).get(key, FR_ZERO)

    def cell_entries(self, g, n):
        return dict(self._cell(g, n))

    def _cell(self, g, n):
        cell = self._cells.get((g, n))
        if cell is None:
            raise MissingDependency("cell (%d, %d) not computed" % (g, n))
        return cell

    def __eq__(self, other):
        if not isinstance(other, BracketTable):
            return NotImplemented
        return self._cells == other._cells

    # -- serialization -------------------------------------------------------

    def to_json(self):
        entries = {}
        for (g, _), cell in self._cells.items():
            for key, value in cell.items():
                entries[entry_key(g, key)] = value.as_text()
        obj = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "chi_max": self.chi_max,
            "cells": sorted("%d,%d" % (g, n) for g, n in self._cells),
            "entries": entries,
        }
        return canonical_json(obj)

    @classmethod
    def from_json(cls, text):
        """Parse ``to_json`` output; any malformed content raises ValueError.

        That covers the structure the table relies on: every listed cell is
        stable, and every entry lies in a listed cell under a non-decreasing
        tuple of non-negative indices whose sum is within the cell's support
        bound.  The recursion reads every stored entry, so an entry past the
        bound is bad input, refused here.  A table stores no zero value
        (``mark_cell`` drops them), so a zero entry is refused too: kept,
        it would be written back and exported.  Each entry has one key,
        the one ``to_json`` writes: a key in another spelling (``1|00`` for
        ``1|0``) or a key given twice is refused, since either would let a
        later value silently replace the entry.  A listed seed cell must
        hold the seed values, which every other cell is computed from; an
        unlisted one is filled in by ``run_to_budget``.  A listed cell
        must hold an entry: every stable cell has a nonzero entry of top
        degree, since the psi integrals are positive, so an empty one is
        a cell cut from the file, which the recursion would read as zero.
        A message quotes a key or value through ``errors.clip``.
        """
        obj = json.loads(text, object_pairs_hook=_unique_keys)
        if (not isinstance(obj, dict) or obj.get("format") != FORMAT_NAME
                or obj.get("version") != FORMAT_VERSION):
            raise ValueError("unrecognized bracket table file")
        cells, entries = obj.get("cells"), obj.get("entries")
        if not isinstance(cells, list) or not isinstance(entries, dict):
            raise ValueError("bracket table needs a cells list and an "
                             "entries object")
        table = cls()
        for cell in cells:
            if not isinstance(cell, str):
                raise ValueError("bad cell %s" % clip(repr(cell)))
            try:
                g, n = map(int, cell.split(","))
            except ValueError:
                raise ValueError("bad cell %s" % clip(cell, "%r")) from None
            if not is_stable(g, n):
                raise ValueError("cell (%d, %d) is not stable" % (g, n))
            table._cells[(g, n)] = {}
        for key, text_value in entries.items():
            try:
                g_s, idx = key.split("|")
                indices = tuple(int(x) for x in idx.split(",")) if idx else ()
                g, n = int(g_s), len(indices)
            except ValueError:
                raise ValueError("bad entry key %s"
                                 % clip(key, "%r")) from None
            canonical = entry_key(g, indices)
            if key != canonical:
                raise ValueError("entry key %s is not the canonical %s"
                                 % (clip(key, "%r"), clip(canonical, "%r")))
            cell = table._cells.get((g, n))
            if cell is None:
                raise ValueError("entry %s is outside the listed cells"
                                 % clip(key))
            if list(indices) != sorted(indices) or any(b < 0 for b in indices):
                raise ValueError("entry %s needs non-decreasing, non-negative "
                                 "indices" % clip(key))
            if sum(indices) > support_bound(g, n):
                raise ValueError("entry %s sums past the support bound %d of "
                                 "cell (%d, %d)"
                                 % (clip(key), support_bound(g, n), g, n))
            if not isinstance(text_value, str):
                raise ValueError("bad value %s for %s"
                                 % (clip(repr(text_value)), clip(key)))
            try:
                value = FRational.from_text(text_value)
            except DivisionByZero:
                raise ValueError("zero denominator in %s" % clip(key))
            except ValueError as exc:
                raise ValueError("bad value for %s: %s" % (clip(key), exc))
            if not value:
                raise ValueError("entry %s is zero" % clip(key))
            cell[indices] = value
        seeds = seed_initial_data()
        for cell, want in seeds._cells.items():
            if table._cells.get(cell, want) != want:
                raise ValueError("seed cell (%d, %d) does not hold the seed "
                                 "values" % cell)
        for cell, got in table._cells.items():
            if not got:
                raise ValueError("cell (%d, %d) holds no entry" % cell)
        return table


def canonical_json(obj):
    """The text of every JSON file the package writes: sorted keys, an
    indent of one space per level and a final newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ": "),
                      indent=1) + "\n"


def entry_key(g, indices):
    """The key of an entry in the cache file, e.g. ``0|0,0,1``."""
    return "%d|%s" % (g, ",".join(map(str, indices)))


def _unique_keys(pairs):
    """A JSON object as a dict, refusing a key given twice."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError("key %s appears twice" % clip(key, "%r"))
        obj[key] = value
    return obj


def seed_initial_data():
    """Three-point and one-point seed cells."""
    table = BracketTable()
    table.mark_cell(0, 3, {(0, 0, 0): FRational.from_int(1)})
    table.mark_cell(1, 1, {
        (0,): FRational.poly([1, 1, 1]) / 24,
        (1,): FRational.poly([0, -1, -1]) / 24,
    })
    return table


def _firsts(key):
    """(x, key without one x) for each distinct value x of the sorted key."""
    return [(x, key[:i] + key[i + 1:]) for i, x in enumerate(key)
            if i == 0 or key[i - 1] != x]


def _interleavings(u, v):
    """The number of ways to lay the sorted tuples u and v on the slots of
    sorted(u + v), each read in order: for each value x, which of its
    slots hold u's copies."""
    count = 1
    for x in set(u):
        k = u.count(x)
        count *= comb(k + v.count(x), k)
    return count


def recursion_step(g, n, table, workspace):
    """Compute all bracket values of one stable cell above the seeds
    (chi >= 2) from lower cells.

    The coefficients are formed only at the slot-0 slice keys (c,) + r,
    r sorted, each standing for every ordering of r, since the right side
    is symmetric in slots 1..n-1 (see the module docstring).  A
    contribution counts the orderings that land on its key:

    * genus reduction: 1 per distinct ordered pair (b0, b1) of a key, the
      rest sorted;
    * splitting: per distinct first entries a1, a2 of a pair of keys, with
      rests u and v, the interleavings of u and v in r = sorted(u + v);
    * companion: the multiplicity in r = sorted(rest + d) of the point
      kernel's index d, one per companion slot d can take.

    Each contribution is gathered as the pair (w, dc) with its count as
    the integer weight, with no product formed and no sum reduced per
    contribution; ``sum_gathered`` reduces each coefficient once.  Returns
    a dict keyed by sorted index tuples.  Raises ``SymmetryViolation`` /
    ``SupportBoundViolation`` if the extracted coefficients fail the
    consistency checks, and ``MissingDependency`` when a required lower
    cell is absent.
    """
    if not is_stable(g, n):
        raise ValueError("cell (%d, %d) is not stable" % (g, n))
    if 2 * g - 2 + n < 2:
        raise ValueError("cell (%d, %d) is a seed, below every recursion "
                         "step" % (g, n))
    coeff = {}

    # genus reduction: brackets at (g-1, n+1) against pair kernels
    if is_stable(g - 1, n + 1):
        for key, br in table.cell_entries(g - 1, n + 1).items():
            w = _FF1 * br
            for b0, rest in _firsts(key):
                for b1, r in _firsts(rest):
                    for c, dc in workspace.decompose_pair_kernel(
                            b0, b1).items():
                        gather(coeff, (c,) + r, w, dc)

    # stable splittings: pairs of lower cells against pair kernels, the
    # first on s of the n-1 companion slots and the second on the rest.
    # The weight depends on the pair of stored keys only, so it is formed
    # once per pair; the interleavings of each pair of rests count it.
    for g1 in range(g + 1):
        for s in range(n):
            if not (is_stable(g1, 1 + s) and is_stable(g - g1, n - s)):
                continue
            second = [(br, _firsts(key)) for key, br
                      in table.cell_entries(g - g1, n - s).items()]
            for key, br1 in table.cell_entries(g1, 1 + s).items():
                first = _firsts(key)
                for br2, others in second:
                    w = -(br1 * br2)
                    for a1, u in first:
                        for a2, v in others:
                            r = tuple(sorted(u + v))
                            count = _interleavings(u, v)
                            for c, dc in workspace.decompose_pair_kernel(
                                    a1, a2).items():
                                gather(coeff, (c,) + r, w, dc, count)

    # companion-slot terms: brackets at (g, n-1) against point kernels,
    # d on one companion slot and the rest of the key on the others
    if is_stable(g, n - 1):
        for key, br in table.cell_entries(g, n - 1).items():
            w = -br / _FF1
            for b, rest in _firsts(key):
                for (c, d), dc in workspace.decompose_point_kernel(b).items():
                    r = tuple(sorted(rest + (d,)))
                    gather(coeff, (c,) + r, w, dc, r.count(d))

    # extraction: check symmetry and support
    coeff = sum_gathered(coeff)
    bound_new = support_bound(g, n)
    entries = {}
    for beta in coeff:
        if sum(beta) > bound_new:
            raise SupportBoundViolation(
                "cell (%d,%d): nonzero bracket at %s beyond bound %d"
                % (g, n, beta, bound_new))
        key = tuple(sorted(beta))
        if key in entries:
            continue
        # beta is one of these slice keys, so the value is nonzero
        vals = {coeff.get((x,) + rest, FR_ZERO) for x, rest in _firsts(key)}
        if len(vals) != 1:
            raise SymmetryViolation(
                "cell (%d,%d): asymmetric extraction at %s" % (g, n, key))
        entries[key] = vals.pop()
    return entries


def assemble_H(g, n, table, tower):
    """The n-variable polynomial generating one cell, held by orbit.

    -(f(f+1))^{n-1} sum over all orderings of bracket(g, b) prod_i phi_{b_i}(t_i).

    H is symmetric, so it is returned only at the orbit representatives,
    the non-increasing exponent vectors e: its coefficient at any vector
    is the one at that vector sorted in decreasing order.  The symmetry
    holds whatever the table holds, because every ordering of each stored
    key is summed at each e.  At e the sum over orderings beta of
    prod_s phi_{beta_s}[e_s] is taken slot by slot: after slots 0..s-1 a
    state is the sorted multiset of the indices placed there, holding the
    sum over its orderings of the product so far.  A state is kept only
    while it is a sub-multiset of a stored key, so an absent bracket costs
    nothing, and each layer is one gathered sum.
    The vectors e are walked depth first, so a prefix that many
    representatives share is summed once.  The full multisets are the
    stored keys, each weighted by its bracket times -(f(f+1))^{n-1}.
    """
    entries = table.cell_entries(g, n)
    if not entries:
        return TPolynomial.zero(n)
    scale = -(_FF1 ** (n - 1))
    weight = {key: value * scale for key, value in entries.items()}
    b_top = max(key[-1] for key in entries)
    phis = [tower.phi_coeffs(b) for b in range(b_top + 1)]
    # children[sub]: (coefficients of phi_b, sub + {b}) for each sub-multiset
    # sub + {b} of a stored key
    children = {}
    level = set(entries)
    for _ in range(n):
        below = set()
        for sub in level:
            for b, parent in _firsts(sub):
                below.add(parent)
                children.setdefault(parent, []).append((phis[b], sub))
        level = below
    reps = {}

    def walk(e, states):
        if len(e) == n:
            for key, v in states.items():
                gather(reps, e, weight[key], v)
            return
        for x in range(e[-1] + 1 if e else 2 * b_top + 2):
            layer = {}
            for sub, v in states.items():
                for phi, nxt in children[sub]:
                    if x < len(phi) and phi[x]:
                        gather(layer, nxt, phi[x], v)
            layer = sum_gathered(layer)
            if layer:
                walk(e + (x,), layer)

    walk((), {(): FR_ONE})
    return TPolynomial._raw(n, sum_gathered(reps))


def budget_cells(chi_max):
    """All stable cells with chi <= chi_max, increasing chi then genus."""
    cells = []
    for chi in range(1, chi_max + 1):
        for g in range(0, (chi + 2) // 2 + 1):
            n = chi + 2 - 2 * g
            if n >= 1:
                cells.append((g, n))
    return cells


def kernel_requirements(cells):
    """(pair, point) for a cell set: the largest index sum a + b of a pair
    kernel and the largest index b of a point kernel that the recursion
    steps of the cells read.

    The sums of a step read only stored brackets of the cells below it,
    which vanish past their support bounds.  At (g, n) the pair kernels
    are read at index sums up to 3g + n - 5, the bound of (g-1, n+1) and
    the sum of the bounds of every splitting, and the point kernels, for
    n >= 2, at indices up to 3g + n - 4, the bound of (g, n-1).  The seeds
    have no step, and their bounds ask for less than 0.
    """
    pair = max([0] + [support_bound(g, n) - 2 for g, n in cells])
    point = max([0] + [support_bound(g, n) - 1 for g, n in cells if n >= 2])
    return pair, point


def make_workspace(cells):
    pair, _ = kernel_requirements(cells)
    return KernelWorkspace(pair)


def run_to_budget(chi_max, extra_cells=(), table=None, workspace=None):
    """Populate every stable cell with chi <= chi_max, and each cell of
    ``extra_cells`` with every cell of lower complexity, which its step
    reads.

    A seed cell the table lacks is filled from ``seed_initial_data``.
    Idempotent over a warm table: already-computed cells are left alone.
    """
    if chi_max < 1:
        raise ValueError("chi_max must be >= 1")
    chi_below = [2 * g - 3 + n for g, n in extra_cells]
    cells = budget_cells(max([chi_max] + chi_below))
    for cell in extra_cells:
        if cell not in cells:
            cells.append(cell)
    cells.sort(key=lambda c: (2 * c[0] - 2 + c[1], c[0]))
    if table is None:
        table = BracketTable()
    seeds = seed_initial_data()
    for g, n in seeds.cells():
        if not table.has_cell(g, n):
            table.mark_cell(g, n, seeds.cell_entries(g, n))
    todo = [c for c in cells if not table.has_cell(*c)]
    if todo and workspace is None:
        workspace = make_workspace(cells)
    for g, n in todo:
        table.mark_cell(g, n, recursion_step(g, n, table, workspace))
    return table
