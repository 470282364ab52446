"""The per-stream noise layer keeps every bit of the generator-per-stream draws.

`_stream_increments_reference` and `_uniforms_reference` are the stream
layer as it was when each stream built its own `np.random.Generator`;
the fast layer must reproduce them byte for byte.  The terminal digests
below were recorded with that layer, so any change to the draws, to the
order of a sum or to the chunking shows as a changed digest.  The
constant-drift primal, the interval, slab and wedge duals and the
identity's primal side of those three families draw their terminal law
in one step of length T, so their bytes depend on T alone, not on the
grid's step count.
"""

import hashlib
import math

import numpy as np
import pytest
from scipy.special import ndtri

from dualflow import (
    BilinearDrift,
    ConstantDrift,
    IntervalState,
    LogisticDrift,
    RngSpec,
    SlabState,
    TimeGrid,
    WedgeState,
    liggett_identity_mc,
)
from dualflow import core, duals
from dualflow.core import stream_increments, uniforms
from dualflow.duals import dual_terminal_batch, primal_terminal_batch


_TWO53 = float(2**53)


def _uniforms_reference(gen, shape):
    return (gen.integers(0, 2**53, size=shape).astype(float) + 0.5) / _TWO53


def _stream_increments_reference(grid, dim, seed, streams, step_uniforms=False):
    m = len(streams)
    inc = np.empty((grid.N, m, dim))
    uni = np.empty((grid.N, m)) if step_uniforms else None
    for i, s in enumerate(streams):
        gen = RngSpec(seed, s).generator()
        inc[:, i, :] = ndtri(_uniforms_reference(gen, (grid.N, dim))) * math.sqrt(grid.dt)
        if step_uniforms:
            uni[:, i] = _uniforms_reference(gen, (grid.N,))
    return inc, uni


_STREAMS = [0, 1, 2**32 + 7, (3 << 32) + 11, 2**63 + 5]


def _liggett_streams(k, count, side):
    """The ids liggett_identity_mc gives one side of RngSpec(seed, k)."""
    return [(k << 32) + 2 * i + side for i in range(count)]


@pytest.mark.parametrize("seed", [0, 8801, 907559])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("N", [1, 37, 2000])
def test_stream_increments_match_reference_bits(seed, dim, N):
    grid = TimeGrid(1.0, N)
    streams = _STREAMS + _liggett_streams(3, 2, 1)
    for step_uniforms in (False, True):
        inc, uni = stream_increments(grid, dim, seed, streams, step_uniforms)
        ref_inc, ref_uni = _stream_increments_reference(grid, dim, seed, streams, step_uniforms)
        assert inc.shape == ref_inc.shape and inc.tobytes() == ref_inc.tobytes()
        if step_uniforms:
            assert uni.shape == ref_uni.shape and uni.tobytes() == ref_uni.tobytes()
        else:
            assert uni is None


def test_stream_increments_straddle_a_sub_block():
    # enough streams that the conversion runs in more than one sub-block,
    # with a width that does not divide the sub-block size
    grid = TimeGrid(1.0, 2000)
    width = grid.N * 2 + grid.N
    per_block = max(1, core._CONVERT_WORDS // width)
    streams = _liggett_streams(0, per_block + 3, 1)
    inc, uni = stream_increments(grid, 2, 907559, streams, step_uniforms=True)
    ref_inc, ref_uni = _stream_increments_reference(grid, 2, 907559, streams, True)
    assert inc.tobytes() == ref_inc.tobytes()
    assert uni.tobytes() == ref_uni.tobytes()


def test_stream_increments_are_views_over_stream_rows():
    inc, uni = stream_increments(TimeGrid(1.0, 5), 2, 0, [4, 5, 6], step_uniforms=True)
    assert inc.shape == (5, 3, 2) and uni.shape == (5, 3)
    assert inc.transpose(1, 0, 2).flags.c_contiguous
    assert uni.T.flags.c_contiguous


def test_stream_increments_reverse_with_their_streams():
    grid = TimeGrid(1.0, 37)
    streams = _STREAMS + list(range(2, 9))
    inc, uni = stream_increments(grid, 2, 8801, streams, step_uniforms=True)
    rinc, runi = stream_increments(grid, 2, 8801, streams[::-1], step_uniforms=True)
    assert rinc.tobytes() == inc[:, ::-1].copy().tobytes()
    assert runi.tobytes() == uni[:, ::-1].copy().tobytes()


@pytest.mark.parametrize("shape", [(), (1,), (7,), (3, 4)])
@pytest.mark.parametrize("seed", [0, 8801, 907559])
def test_uniforms_match_reference_bits(shape, seed):
    gen, ref = RngSpec(seed, 2**63 + 5).generator(), RngSpec(seed, 2**63 + 5).generator()
    for _ in range(3):
        u, r = uniforms(gen, shape), _uniforms_reference(ref, shape)
        assert np.shape(u) == np.shape(r) and np.asarray(u).tobytes() == np.asarray(r).tobytes()
    # later draws of other kinds see the same generator state
    assert gen.integers(0, 2**53) == ref.integers(0, 2**53)


def test_numpy_integer_ids_draw_the_bytes_of_python_ids():
    # a NumPy id reduces mod 2**64 as a Python int would, with no overflow
    for seed, stream in ((3, 1), (-5, 2**63 + 5), (2**63 - 1, -1)):
        ids = (np.int64(seed), np.int64(stream) if stream < 2**63 else np.uint64(stream))
        gens = RngSpec(seed, stream).generator(), RngSpec(*ids).generator()
        assert uniforms(gens[0], (5,)).tobytes() == uniforms(gens[1], (5,)).tobytes()
    grid, streams = TimeGrid(1.0, 3), [0, 1, 2**32 + 7]
    ref = stream_increments(grid, 2, 3, streams, step_uniforms=True)
    for seed, ids in ((np.int64(3), streams), (3, np.array(streams)),
                      (np.uint64(3), [np.int64(s) for s in streams])):
        got = stream_increments(grid, 2, seed, ids, step_uniforms=True)
        assert got[0].tobytes() == ref[0].tobytes() and got[1].tobytes() == ref[1].tobytes()


# ---------------------------------------------------------------------------
# terminal bytes of the batch estimators


def _toy_logistic():
    inputs = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, 1.0], [-1.0, -1.0]])
    return LogisticDrift(inputs, np.array([1.0, 1.0, 0.0, 0.0]))


_D = np.array([1.0, -1.0]) / math.sqrt(2.0)

# (start, state, grid, drift, stream block k), the duality benchmark's inputs
_FAMILIES = {
    "interval": lambda: (np.array([0.0]), IntervalState(-1.0, 1.0), TimeGrid(1.0, 2000),
                         ConstantDrift(0.5), 0),
    "wedge": lambda: (np.array([0.2, 0.0]),
                      WedgeState(np.array([1.0, 2.0]), np.array([0.0, 0.0]), np.array([0.5, 0.0])),
                      TimeGrid(0.5, 250), BilinearDrift(), 3),
    "slab": lambda: (np.array([0.0, 0.0]), SlabState(-0.4 * _D, 0.4 * _D, _D),
                     TimeGrid(0.5, 250), _toy_logistic(), 4),
    "constant-2d": lambda: (np.array([0.1, -0.2]), None, TimeGrid(1.0, 300),
                            ConstantDrift(np.array([0.5, -0.25])), 5),
}

# the wedge's inputs with the closed-form gate shut: its dual runs the
# gridded chunk loop of dual_terminal_batch, which every model without a
# closed form steps on
_FAMILIES["wedge-gridded"] = _FAMILIES["wedge"]
_GRIDDED = {"wedge-gridded"}

_SEED = 907559
_PATHS = 300


def _shut_gate_if_gridded(mp, name):
    if name in _GRIDDED:
        mp.setattr(WedgeState, "_closed_form", lambda state, drift: None)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _primal(name, paths=_PATHS, chunk=duals._CHUNK, streams=None):
    x, _, grid, drift, k = _FAMILIES[name]()
    streams = _liggett_streams(k, paths, 0) if streams is None else streams
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(duals, "_CHUNK", chunk)
        return primal_terminal_batch(x, drift, grid, _SEED, streams)


def _dual(name, paths=_PATHS, chunk=duals._CHUNK, streams=None):
    _, state, grid, drift, k = _FAMILIES[name]()
    streams = _liggett_streams(k, paths, 1) if streams is None else streams
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(duals, "_CHUNK", chunk)
        _shut_gate_if_gridded(mp, name)
        out = dual_terminal_batch(state, drift, grid, _SEED, streams)
    return out["z"], out["y"], out["alive"], out["normal"]


_PRIMAL_DIGESTS = {
    "interval": "bbb984e12d774ea6",
    "wedge": "2d29d07a20afc75a",
    "slab": "e7b73e3a503fcca0",
    "constant-2d": "cfefb14302e6ff90",
}

# the slab entry was re-recorded when its y-face slid by d . flip(W_T), as
# dual_step slides it (y moved by at most 2.2e-16; z and alive held); the
# wedge entry when its lines were drawn from their exact law at T in one
# step, with each anchor at the foot of the normal from the origin; the
# gridded wedge pins the bytes of the gridded chunk loop
_DUAL_DIGESTS = {
    "interval": "893c3cff218a39a0",
    "wedge": "1a6e94609e9ad78b",
    "wedge-gridded": "746865de77ea37ba",
    "slab": "47867ba38548ad24",
}

# criterion 1's liggett_identity_mc at 4096 paths: lhs, lhs_se, rhs, rhs_se
_CRITERION_01_4096 = "316ddd736f94b325"

# the wedge's surviving rows, alive mask and normal, without the NaN rows
# of its killed replicas
_WEDGE_SURVIVORS = "bcbb01e1dd6d6de4"
_GRIDDED_WEDGE_SURVIVORS = "c59712bc30fa9308"


@pytest.mark.parametrize("name", sorted(_PRIMAL_DIGESTS))
def test_primal_terminal_bytes_unchanged(name):
    assert _digest(_primal(name)) == _PRIMAL_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(_DUAL_DIGESTS))
def test_dual_terminal_bytes_unchanged(name):
    assert _digest(*_dual(name)) == _DUAL_DIGESTS[name]


def test_wedge_survivor_rows_unchanged():
    z, y, alive, normal = _dual("wedge")
    assert np.isnan(z[~alive]).all() and np.isnan(y[~alive]).all()
    assert _digest(z[alive], y[alive], alive, normal) == _WEDGE_SURVIVORS


def test_gridded_wedge_survivor_rows_unchanged():
    z, y, alive, normal = _dual("wedge-gridded")
    assert np.isnan(z[~alive]).all() and np.isnan(y[~alive]).all()
    assert _digest(z[alive], y[alive], alive, normal) == _GRIDDED_WEDGE_SURVIVORS


@pytest.mark.parametrize("name", ["interval", "constant-2d"])
def test_constant_primal_bytes_do_not_depend_on_the_grid(name):
    x, _, grid, drift, k = _FAMILIES[name]()
    streams = _liggett_streams(k, 50, 0)
    outs = [primal_terminal_batch(x, drift, TimeGrid(grid.T, N), _SEED, streams)
            for N in (1, 7, 2000)]
    assert outs[0].tobytes() == outs[1].tobytes() == outs[2].tobytes()


@pytest.mark.parametrize("name", ["interval", "slab", "wedge"])
def test_closed_form_dual_bytes_do_not_depend_on_the_grid(name):
    _, state, grid, drift, k = _FAMILIES[name]()
    streams = _liggett_streams(k, 50, 1)
    outs = [dual_terminal_batch(state, drift, TimeGrid(grid.T, N), _SEED, streams)
            for N in (1, 7, 2000)]
    for key in ("z", "y", "alive", "normal"):
        assert outs[0][key].tobytes() == outs[1][key].tobytes() == outs[2][key].tobytes()


@pytest.mark.parametrize("name", ["interval", "slab", "wedge"])
def test_closed_form_identity_does_not_depend_on_the_grid(name):
    x, state, grid, drift, k = _FAMILIES[name]()
    ests = [liggett_identity_mc(x, state, TimeGrid(grid.T, N), 200, drift, RngSpec(_SEED, k))
            for N in (1, 7, 2000)]
    assert ests[0] == ests[1] == ests[2]


def _estimate_hex(est):
    return " ".join(float(v).hex() for v in (est.lhs, est.lhs_se, est.rhs, est.rhs_se))


def test_criterion_01_estimate_unchanged_at_4096_paths():
    est = liggett_identity_mc(np.array([0.0]), IntervalState(-1.0, 1.0), TimeGrid(1.0, 2000),
                              4096, ConstantDrift(0.5), RngSpec(8801, 0))
    assert hashlib.sha256(_estimate_hex(est).encode()).hexdigest()[:16] == _CRITERION_01_4096


# ---------------------------------------------------------------------------
# chunk and order independence


def _assert_same_rows(a, b, exact):
    if exact:
        assert a.tobytes() == b.tobytes()
    else:
        assert np.allclose(a, b, rtol=0.0, atol=1e-12)


# LogisticDrift.beta (its batched matrix products) is not row-count
# invariant, so under it a replica's last bits depend on the replicas that
# share its chunk.  Only the slab primal runs it (the constant drift draws
# W_T in one step and the bilinear drift steps row by row), so it alone is
# held to 1e-12, well above the few ulps seen.  No dual runs a
# row-count-variant kernel: the interval, slab and wedge duals move in
# closed form and the gridded wedge's bilinear implicit step is
# elementwise, so every dual is held to its bytes.
@pytest.mark.parametrize("chunk", [1, 7, 4096])
@pytest.mark.parametrize("name", sorted(_PRIMAL_DIGESTS))
def test_primal_terminal_bytes_do_not_depend_on_chunk(name, chunk):
    _assert_same_rows(_primal(name, chunk=chunk), _primal(name), exact=name != "slab")


@pytest.mark.parametrize("chunk", [1, 7, 4096])
@pytest.mark.parametrize("name", sorted(_DUAL_DIGESTS))
def test_dual_terminal_bytes_do_not_depend_on_chunk(name, chunk):
    # chunk 1 steps one replica at a time, so it runs on a prefix
    paths = 40 if chunk == 1 else _PATHS
    z, y, alive, normal = _dual(name, paths, chunk)
    whole = _dual(name)
    assert alive.tobytes() == whole[2][:paths].tobytes()
    assert normal.tobytes() == whole[3].tobytes()
    assert z.tobytes() == whole[0][:paths].tobytes()
    assert y.tobytes() == whole[1][:paths].tobytes()


@pytest.mark.parametrize("name", sorted(_DUAL_DIGESTS))
def test_reversed_streams_reverse_the_rows(name):
    *_, k = _FAMILIES[name]()
    lhs, rhs = _liggett_streams(k, 60, 0), _liggett_streams(k, 60, 1)
    assert _primal(name, streams=lhs[::-1]).tobytes() == _primal(name, streams=lhs)[::-1].tobytes()
    fwd, rev = _dual(name, streams=rhs), _dual(name, streams=rhs[::-1])
    for a, b in zip(fwd[:3], rev[:3]):
        assert b.tobytes() == a[::-1].tobytes()


# moves rows within chunks and, at chunk 7, across them
_PERMUTATION = np.random.default_rng(17).permutation(60)


@pytest.mark.parametrize("chunk", [7, duals._CHUNK])
@pytest.mark.parametrize("name", sorted(_PRIMAL_DIGESTS))
def test_permuted_streams_permute_the_primal_rows(name, chunk):
    *_, k = _FAMILIES[name]()
    streams = _liggett_streams(k, 60, 0)
    rows = _primal(name, chunk=chunk, streams=streams)
    permuted = _primal(name, chunk=chunk, streams=[streams[i] for i in _PERMUTATION])
    # the slab primal runs LogisticDrift.beta, whose batched matrix
    # products are not row-count invariant: a permuted row shares its
    # chunk with other rows, so its last bits may move (see above)
    _assert_same_rows(permuted, rows[_PERMUTATION], exact=name != "slab")


@pytest.mark.parametrize("chunk", [7, duals._CHUNK])
@pytest.mark.parametrize("name", sorted(_DUAL_DIGESTS))
def test_permuted_streams_permute_the_dual_rows(name, chunk):
    *_, k = _FAMILIES[name]()
    streams = _liggett_streams(k, 60, 1)
    z, y, alive, normal = _dual(name, chunk=chunk, streams=streams)
    pz, py, palive, pnormal = _dual(name, chunk=chunk,
                                    streams=[streams[i] for i in _PERMUTATION])
    assert palive.tobytes() == alive[_PERMUTATION].tobytes()
    assert pz.tobytes() == z[_PERMUTATION].tobytes()
    assert py.tobytes() == y[_PERMUTATION].tobytes()
    assert pnormal.tobytes() == normal.tobytes()


@pytest.mark.parametrize("name", sorted(_DUAL_DIGESTS))
def test_identity_estimate_does_not_depend_on_chunk(name, monkeypatch):
    x, state, grid, drift, k = _FAMILIES[name]()
    ests = []
    _shut_gate_if_gridded(monkeypatch, name)
    for chunk in (1, 7, 4096):
        monkeypatch.setattr(duals, "_CHUNK", chunk)
        ests.append(liggett_identity_mc(x, state, grid, 50, drift, RngSpec(_SEED, k)))
    assert ests[0] == ests[1] == ests[2]
