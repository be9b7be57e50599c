"""Windowed best-extension solvers: singleton scans, staging, color coding.

The reference below enumerates, per net index shift, the best achievable
gain over all count vectors on the key universe together with every
maximizing support.  A solver answer must be feasible everywhere (its
profit recomputes from the source and counts) and must match the
enumerated optimum at every index whose maximizers all extend along keys
contained in their source's set; elsewhere any feasible value may appear.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

import pytest

from smallweight.model import ContractError, Counters
from smallweight.weakextend import (
    APSegment,
    WeakExtendInstance,
    WeakExtendSolution,
    _reflect_instance,
    _unreflect_solution,
    compose_solutions,
    isolating_colorings,
    large_b_extend,
    max_solutions,
    restrict_instance,
    singleton_extend,
    small_b_extend,
    trivial_solution,
    update_instance,
)


# -- construction helpers ------------------------------------------------------


class TabulatedGain:
    """Gain from an explicit increment table, with a steep concave tail.

    ``gain(x)`` sums the first x increments; past the table the increments
    keep falling by ``tail_drop`` per step, keeping the whole function
    strictly concave on x >= 0 so that oversized counts never win.
    """

    __slots__ = ("_prefix", "_drop")

    def __init__(self, increments: Sequence[int], tail_drop: int | None = None):
        incs = [int(v) for v in increments]
        prefix = [0]
        for a, b in zip(incs, incs[1:]):
            if b >= a:
                raise ContractError("gain increments must strictly decrease")
        for v in incs:
            prefix.append(prefix[-1] + v)
        if tail_drop is None:
            tail_drop = max(1, (incs[0] - incs[-1] + 1) if incs else 1)
        if tail_drop < 1:
            raise ContractError("tail drop must be positive")
        self._prefix = prefix
        self._drop = tail_drop

    def gain(self, x: int) -> int:
        if x < 0:
            raise ValueError("counts are non-negative")
        prefix = self._prefix
        m = len(prefix) - 1
        if x <= m:
            return prefix[x]
        extra = x - m
        last = prefix[m] - prefix[m - 1] if m else 0
        return prefix[m] + extra * last - self._drop * extra * (extra + 1) // 2


def recompute_objective(
    instance: WeakExtendInstance, solution: WeakExtendSolution, pos: int
) -> int | None:
    """Re-evaluate a solution entry from its source and counts.

    ``instance`` must be the instance the solution solved (after any
    restriction).  Returns None where the solution is undefined; otherwise
    the source profit plus the summed gains, which must equal ``r[pos]``.
    """
    if solution.r[pos] is None:
        return None
    base = instance.q[solution.z[pos]]
    if base is None:
        raise ContractError("defined solution entry with undefined source")
    total = base
    for key, cnt in solution.vector(pos).items():
        total += instance.gains[key].gain(cnt)
    return total


def make_instance(q, sets, gains, offset=0):
    """Build an instance from per-position key tuples."""
    table: list[tuple[int, ...]] = []
    index: dict[tuple[int, ...], int] = {}
    handles: list[int | None] = []
    for s in sets:
        row = tuple(sorted(s))
        if not row:
            handles.append(None)
            continue
        if row not in index:
            index[row] = len(table)
            table.append(row)
        handles.append(index[row])
    return WeakExtendInstance(
        offset=offset,
        q=tuple(q),
        handles=tuple(handles),
        table=tuple(table),
        universe=frozenset(gains),
        gains=gains,
    )


def random_instance(rng, *, L_max=24, max_set=1, key_pool=6, n_keys=3, sign=None):
    L = rng.randint(1, L_max)
    s = sign if sign is not None else rng.choice((1, -1))
    nk = rng.randint(0, n_keys)
    keys = [s * k for k in rng.sample(range(1, key_pool + 1), nk)]
    gains = {}
    for k in keys:
        m = rng.randint(1, 5)
        incs, cur = [], rng.randint(0, 9)
        for _ in range(m):
            incs.append(cur)
            cur -= rng.randint(1, 4)
        gains[k] = TabulatedGain(incs)
    rows: list[tuple[int, ...]] = []
    if keys:
        for _ in range(rng.randint(1, 5)):
            size = rng.randint(1, min(max_set, len(keys)))
            rows.append(tuple(sorted(rng.sample(keys, size))))
    sets = []
    q = []
    for _ in range(L):
        q.append(rng.randint(0, 40) if rng.random() < 0.8 else None)
        if rows and rng.random() < 0.75:
            sets.append(rng.choice(rows))
        else:
            sets.append(())
    if all(v is None for v in q):
        q[rng.randrange(L)] = rng.randint(0, 40)
    return make_instance(q, sets, gains, offset=rng.randint(-30, 30))


# -- enumerated reference ------------------------------------------------------


def shift_table(instance):
    """Per net shift: (best gain, frozenset supports attaining it)."""
    keys = sorted(instance.universe)
    span = instance.length
    table: dict[int, tuple[int, set[frozenset[int]]]] = {}

    def rec(idx, d, g, used):
        if idx == len(keys):
            got = table.get(d)
            if got is None or g > got[0]:
                table[d] = (g, {frozenset(used)})
            elif g == got[0]:
                got[1].add(frozenset(used))
            return
        k = keys[idx]
        x = 0
        while True:
            nd = d + k * x
            if x > 0 and abs(nd) >= span:
                break
            if x:
                used.append(k)
            rec(idx + 1, nd, g + instance.gains[k].gain(x), used)
            if x:
                used.pop()
            x += 1

    rec(0, 0, 0, [])
    return table


def reference_arrays(instance):
    """(optimum per index, exactness-required flag per index)."""
    L = instance.length
    table = shift_table(instance)
    opt: list[int | None] = []
    for i in range(L):
        cands = [
            instance.q[i - d] + g
            for d, (g, _) in table.items()
            if 0 <= i - d < L and instance.q[i - d] is not None
        ]
        opt.append(max(cands) if cands else None)
    required = []
    for i in range(L):
        ok = opt[i] is not None
        if ok:
            for d, (g, supps) in table.items():
                z = i - d
                if 0 <= z < L and instance.q[z] is not None and instance.q[z] + g == opt[i]:
                    allowed = set(instance.set_of(z))
                    if any(not s <= allowed for s in supps):
                        ok = False
                        break
        required.append(ok)
    return opt, required


def check_solution(instance, sol, opt=None, required=None):
    assert sol.offset == instance.offset
    assert sol.length == instance.length
    assert sol.keys == instance.universe
    for p in range(sol.length):
        rp = sol.r[p]
        if instance.q[p] is not None:
            assert rp is not None and rp >= instance.q[p]
        if rp is None:
            continue
        zp = sol.z[p]
        assert 0 <= zp < sol.length
        assert instance.q[zp] is not None
        vec = sol.vector(p)
        assert set(vec) <= set(instance.universe)
        assert all(c >= 1 for c in vec.values())
        assert zp + sum(k * c for k, c in vec.items()) == p
        assert recompute_objective(instance, sol, p) == rp
        if opt is not None:
            assert opt[p] is not None and rp <= opt[p]
    if opt is not None and required is not None:
        for p in range(sol.length):
            if required[p]:
                assert sol.r[p] == opt[p], f"position {p}: {sol.r[p]} != {opt[p]}"


# -- pinned examples -----------------------------------------------------------


def test_singleton_pinned_example():
    inst = make_instance(
        q=[0, 10, None, None, None],
        sets=[(), (2,), (), (), ()],
        gains={2: TabulatedGain([5, 3])},
    )
    sol = singleton_extend(inst)
    assert sol.r == [0, 10, None, 15, None]
    assert sol.z[3] == 1
    assert sol.vector(3) == {2: 1}
    assert sol.vector(1) == {}
    opt, required = reference_arrays(inst)
    check_solution(inst, sol, opt, required)


def test_singleton_pinned_example_reflected():
    inst = make_instance(
        q=[None, None, None, 10, 0],
        sets=[(), (), (), (-2,), ()],
        gains={-2: TabulatedGain([5, 3])},
    )
    sol = singleton_extend(inst)
    assert sol.r == [None, 15, None, 10, 0]
    assert sol.z[1] == 3
    assert sol.vector(1) == {-2: 1}
    opt, required = reference_arrays(inst)
    check_solution(inst, sol, opt, required)


def test_all_sets_empty_returns_the_input_array():
    inst = make_instance(
        q=[3, None, 7, 1],
        sets=[(), (), (), ()],
        gains={2: TabulatedGain([5])},
    )
    for solver in (
        singleton_extend,
        lambda i: small_b_extend(i, 1),
        lambda i: large_b_extend(i, 1),
    ):
        sol = solver(inst)
        assert sol.r == [3, None, 7, 1]
        assert sol.z == [0, 1, 2, 3]
        assert all(sol.vector(p) == {} for p in range(4))


def test_single_index_window_is_its_own_answer():
    inst = make_instance(q=[7], sets=[(3,)], gains={3: TabulatedGain([5])})
    sol = singleton_extend(inst)
    assert sol.r == [7] and sol.z == [0]


def test_reflection_round_trip():
    rng = random.Random(11)
    for _ in range(30):
        inst = random_instance(rng, sign=-1, max_set=2, n_keys=3)
        refl = _reflect_instance(inst)
        assert all(k > 0 for k in refl.universe)
        assert refl.q == tuple(reversed(inst.q))
        L = inst.length
        for p in range(L):
            assert refl.set_of(p) == tuple(sorted(-k for k in inst.set_of(L - 1 - p)))
        back = _unreflect_solution(trivial_solution(refl), inst)
        assert back.r == list(inst.q)
        assert back.z == list(range(L))


# -- staging algebra -----------------------------------------------------------


def three_key_instance(rng):
    gains = {
        1: TabulatedGain([6, 2]),
        2: TabulatedGain([9, 4]),
        3: TabulatedGain([7]),
    }
    L = rng.randint(4, 18)
    rows = [(1,), (2,), (3,), (1, 2), (2, 3), (1, 2, 3)]
    q = [rng.randint(0, 30) if rng.random() < 0.85 else None for _ in range(L)]
    if all(v is None for v in q):
        q[0] = 5
    sets = [rng.choice(rows) if rng.random() < 0.8 else () for _ in range(L)]
    return make_instance(q, sets, gains)


def fold_stages(instance, classes):
    cur = instance
    parts = []
    for ks in classes:
        part = singleton_extend(restrict_instance(cur, ks))
        cur = update_instance(cur, ks, part)
        parts.append(part)
    return parts


def test_compose_with_identity_stage_is_unchanged():
    rng = random.Random(5)
    for _ in range(20):
        inst = random_instance(rng, max_set=1, n_keys=2)
        sol = singleton_extend(inst)
        after = trivial_solution(update_instance(inst, inst.universe, sol))
        before = trivial_solution(restrict_instance(inst, ()))
        for composed in (
            compose_solutions(sol, after),
            compose_solutions(before, sol),
        ):
            assert composed.r == sol.r
            assert composed.z == sol.z
            assert all(
                composed.vector(p) == sol.vector(p) for p in range(sol.length)
            )


def test_max_of_a_solution_with_itself_is_itself():
    rng = random.Random(6)
    inst = random_instance(rng, max_set=1, n_keys=3)
    sol = singleton_extend(inst)
    again = max_solutions(sol, sol)
    assert again.r == sol.r and again.z == sol.z
    assert all(again.vector(p) == sol.vector(p) for p in range(sol.length))


def test_compose_is_associative_on_three_stages():
    rng = random.Random(7)
    for _ in range(25):
        inst = three_key_instance(rng)
        a, b, c = fold_stages(inst, [(1,), (2,), (3,)])
        left = compose_solutions(compose_solutions(a, b), c)
        right = compose_solutions(a, compose_solutions(b, c))
        assert left.r == right.r
        assert left.z == right.z
        for p in range(left.length):
            assert left.vector(p) == right.vector(p)
        check_solution(inst, left)


def test_staged_folding_matches_reference_on_singleton_rows():
    # When every row holds at most one key, folding the keys one class at a
    # time must still satisfy the containment contract of the whole window.
    rng = random.Random(8)
    for _ in range(25):
        inst = random_instance(rng, max_set=1, key_pool=3, n_keys=3, L_max=18)
        if not inst.universe:
            continue
        classes = [(k,) for k in sorted(inst.universe)]
        parts = fold_stages(inst, classes)
        combined = parts[0]
        for part in parts[1:]:
            combined = compose_solutions(combined, part)
        opt, required = reference_arrays(inst)
        check_solution(inst, combined, opt, required)


def test_update_instance_moves_handles_with_the_source():
    gains = {2: TabulatedGain([5, 3])}
    inst = make_instance(
        q=[0, 10, None, None, None],
        sets=[(1,), (2,), (), (), ()],
        gains=gains | {1: TabulatedGain([1])},
    )
    sol = singleton_extend(restrict_instance(inst, (2,)))
    nxt = update_instance(inst, (2,), sol)
    assert nxt.q == (0, 10, None, 15, None)
    # Index 3 was reached from index 1, so it now carries index 1's set
    # minus the solved key: {2} is gone, {1} was never there.
    assert nxt.universe == frozenset({1})
    assert nxt.set_of(3) == ()
    assert nxt.set_of(0) == (1,)


# -- erroneous uses ------------------------------------------------------------


def test_instance_validation():
    gains = {2: TabulatedGain([5])}
    with pytest.raises(ContractError):
        WeakExtendInstance(0, (), (), (), frozenset({2}), gains)
    with pytest.raises(ContractError):
        WeakExtendInstance(0, (1,), (1, 2), (), frozenset({2}), gains)
    with pytest.raises(ContractError):
        WeakExtendInstance(0, (1,), (0,), (), frozenset({2}), gains)
    with pytest.raises(ContractError):
        make_instance([1], [()], {0: TabulatedGain([5])})
    with pytest.raises(ContractError):
        make_instance([1], [()], {2: TabulatedGain([5]), -3: TabulatedGain([4])})
    with pytest.raises(ContractError):
        WeakExtendInstance(0, (1,), (None,), (), frozenset({2}), {})


def test_gain_table_validation():
    with pytest.raises(ContractError):
        TabulatedGain([3, 3])
    with pytest.raises(ContractError):
        TabulatedGain([1, 2])
    with pytest.raises(ContractError):
        TabulatedGain([5], tail_drop=0)
    g = TabulatedGain([5, 3])
    assert [g.gain(x) for x in range(3)] == [0, 5, 8]
    assert g.gain(4) < g.gain(3) < g.gain(2) + 3  # strictly concave tail
    with pytest.raises(ValueError):
        g.gain(-1)


def test_segment_validation():
    with pytest.raises(ContractError):
        APSegment(j=0, c=3, w=2, k=0, ell=1)
    with pytest.raises(ContractError):
        APSegment(j=0, c=0, w=2, k=2, ell=1)
    with pytest.raises(ContractError):
        APSegment(j=5, c=0, w=2, k=1, ell=3)
    APSegment(j=1, c=1, w=2, k=0, ell=3)


def test_singleton_rejects_multi_key_sets():
    inst = make_instance(
        [1, 2], [(1, 2), ()], {1: TabulatedGain([3]), 2: TabulatedGain([2])}
    )
    with pytest.raises(ContractError):
        singleton_extend(inst)
    small_b_extend(inst, 2)
    with pytest.raises(ContractError):
        small_b_extend(inst, 1)
    with pytest.raises(ContractError):
        small_b_extend(inst, 0)


def test_stage_plumbing_rejects_mismatches():
    gains = {1: TabulatedGain([3]), 2: TabulatedGain([2])}
    inst = make_instance([1, 2, 3], [(1,), (2,), ()], gains)
    sol = singleton_extend(restrict_instance(inst, (1,)))
    with pytest.raises(ContractError):
        restrict_instance(inst, (7,))
    with pytest.raises(ContractError):
        update_instance(inst, (2,), sol)  # solution solved {1}, not {2}
    shifted = make_instance([1, 2, 3], [(1,), (2,), ()], gains, offset=4)
    with pytest.raises(ContractError):
        update_instance(shifted, (1,), sol)
    with pytest.raises(ContractError):
        compose_solutions(sol, sol)  # overlapping keys
    other = singleton_extend(restrict_instance(shifted, (2,)))
    with pytest.raises(ContractError):
        compose_solutions(sol, other)  # window mismatch
    with pytest.raises(ContractError):
        max_solutions(sol, singleton_extend(restrict_instance(inst, (2,))))


# -- randomized contract checks ------------------------------------------------


def test_singleton_matches_enumeration_where_contained():
    rng = random.Random(21)
    for _ in range(60):
        inst = random_instance(rng, max_set=1)
        sol = singleton_extend(inst)
        opt, required = reference_arrays(inst)
        check_solution(inst, sol, opt, required)


def test_small_b_matches_enumeration_where_contained():
    rng = random.Random(22)
    for _ in range(60):
        b = rng.randint(1, 3)
        inst = random_instance(rng, max_set=b, n_keys=4)
        sol = small_b_extend(inst, b)
        opt, required = reference_arrays(inst)
        check_solution(inst, sol, opt, required)


def test_large_b_matches_enumeration_where_contained():
    rng = random.Random(23)
    for _ in range(40):
        b = rng.randint(3, 5)
        inst = random_instance(rng, max_set=b, n_keys=5, L_max=20)
        sol = large_b_extend(inst, b)
        opt, required = reference_arrays(inst)
        check_solution(inst, sol, opt, required)


def test_small_b_one_equals_singleton():
    rng = random.Random(24)
    for _ in range(40):
        inst = random_instance(rng, max_set=1, n_keys=3)
        assert small_b_extend(inst, 1).r == singleton_extend(inst).r


def test_large_b_below_log_delegates_to_small_b():
    rng = random.Random(25)
    for _ in range(40):
        inst = random_instance(rng, max_set=2, n_keys=4)
        sets = {inst.set_of(p) for p in range(inst.length)} - {()}
        m = len(sets)
        b = 2
        if m and b <= max(1.0, math.log2(m)):
            assert large_b_extend(inst, b).r == small_b_extend(inst, b).r


def literal_small_b(instance, b):
    """Color-coded route spelled out with the public staging operations."""
    if any(k < 0 for k in instance.universe):
        work = _reflect_instance(instance)
    else:
        work = instance
    L = work.length
    sets = [work.set_of(p) for p in range(L)]
    distinct = sorted(set(sets) - {()})
    if not work.universe or not distinct:
        return trivial_solution(instance)
    colorings, _ = isolating_colorings(sorted(work.universe), distinct, b)
    assigned = []
    for s in sets:
        for idx, coloring in enumerate(colorings):
            if len({coloring[u] for u in s}) == len(s):
                assigned.append(idx)
                break
    merged = None
    for idx, coloring in enumerate(colorings):
        masked = WeakExtendInstance(
            offset=work.offset,
            q=tuple(
                work.q[p] if assigned[p] == idx else None for p in range(L)
            ),
            handles=tuple(
                work.handles[p] if assigned[p] == idx else None for p in range(L)
            ),
            table=work.table,
            universe=work.universe,
            gains=work.gains,
        )
        classes: dict[int, list[int]] = {}
        for key in sorted(work.universe):
            classes.setdefault(coloring[key], []).append(key)
        cur = masked
        combined = None
        for color in sorted(classes):
            keys = tuple(classes[color])
            part = singleton_extend(restrict_instance(cur, keys))
            cur = update_instance(cur, keys, part)
            combined = (
                part if combined is None else compose_solutions(combined, part)
            )
        merged = combined if merged is None else max_solutions(merged, combined)
    if work is not instance:
        merged = _unreflect_solution(merged, instance)
    return merged


def test_small_b_agrees_with_the_literal_staged_route():
    rng = random.Random(26)
    for _ in range(50):
        b = rng.randint(1, 3)
        inst = random_instance(rng, max_set=b, n_keys=4, L_max=20)
        fast = small_b_extend(inst, b)
        slow = literal_small_b(inst, b)
        assert fast.r == slow.r
        check_solution(inst, slow)


def test_counters_track_entry_evaluations():
    rng = random.Random(27)
    inst = random_instance(rng, max_set=2, n_keys=3, L_max=20)
    counters = Counters()
    small_b_extend(inst, 2, counters=counters)
    before = counters.entry_evals
    small_b_extend(inst, 2, counters=counters)
    assert counters.entry_evals >= before
    if inst.universe and any(inst.set_of(p) for p in range(inst.length)):
        assert before > 0
