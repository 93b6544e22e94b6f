"""Small dense-statevector kernels shared by the vectorization, simulator,
and superoperator layers.

Index convention used everywhere: a K-qubit state is a flat vector whose
reshape to (2,)*K puts qubit 0 on axis 0, i.e. qubit 0 is the most
significant bit of the flat index.
"""

from __future__ import annotations

import itertools
import operator
from functools import partial

import numpy as np

from .errors import CapExceededError

# Working memory, in bytes, that one dense allocation may ask for. Every array
# that grows as 2^n or faster states its bytes to :func:`reserve` before it
# is built, so an oversized task exits with CapExceededError instead of
# exhausting memory. Chosen from measured peaks under a 2 GiB address-space
# ceiling (numpy 2.4, one OpenBLAS thread, Linux x86-64): the largest request
# a CLI task made and finished with was 512 MiB (the oracle's working set at
# 11 sites; choi2pc there peaked at 1.12 GB resident, corr at 0.57 GB); the
# smallest that ran out of memory was 1 GiB (choi2pc at 12 sites, evolve at
# 13). Every value in between admits the same runs.
BYTE_BUDGET = 3 << 28


def size_text(count: int) -> str:
    """``count`` in decimal digits up to 2^64; past it, as the power of two
    it equals or exceeds, since str() of an int past 4,300 digits raises."""
    if count.bit_length() <= 64:
        return str(count)
    k = count.bit_length() - 1
    return f"2^{k}" if count == 1 << k else f"over 2^{k}"


def reserve(nbytes: int, what: str) -> None:
    """Refuse ``what``, before it is allocated, if its ``nbytes`` of working
    memory exceed BYTE_BUDGET."""
    if nbytes > BYTE_BUDGET:
        raise CapExceededError(
            f"{what} needs {size_text(nbytes)} bytes; the byte budget allows {BYTE_BUDGET}"
        )


# Largest (target block) x (trailing block) size folded into one matrix,
# mat (x) I_B: many tiny batched products cost far more than one wider product
# over the last axis. A dense block whose trailing block is narrower than it
# (1 < B < D) is folded up to _FOLD_NARROW when the folded GEMM has at least
# _FOLD_ROWS rows. At D = 16, B = 4 on 2^14 float64 amplitudes the fold took
# 45 us against 48 us for the transposed kernel, and 19 us run split (below)
# when the block is block-diagonal. With fewer rows OpenBLAS (0.3.31,
# SkylakeX kernels) takes a small-matrix path that rounds the folded product
# differently from the transposed one, and the pass is cheap anyway. Wider
# folds lost: 4 x 4 and 8 x 8 blocks with B = 16 and 8 took 3x as long
# folded to 64 x 64 as batched, and a 16 x 16 block with B = 8 runs 1.7x
# faster split (below) than folded to 128 x 128.
# Doubled evolutions on n sites fuse a block on sites (n-3, n-2) with an
# adjacent one on (n-2, n-1) into one 64 x 64 block (B = 1, run split as
# below), so the narrow fold still runs only on a block on (n-3, n-2) with no
# such neighbour, as in a circuit whose last two bonds are apart. The fold of a block-diagonal block is block-diagonal, so a fold
# to 16 x 16 or wider can run split too (below).
_FOLD = 32
_FOLD_NARROW = 64
_FOLD_ROWS = 32

# A block that is block-diagonal in its leading target qubit (see
# :func:`_halves`), as every transfer block whose first site carries no field
# is, runs as two half-size products from D = _SPLIT: with B >= D, and with
# B = 1, folded or not, on at least _SPLIT_ROWS rows. Per pass on 2^14
# amplitudes (one OpenBLAS thread, SkylakeX kernels, right operands laid out
# as below), the split took 0.4x the dense time for the 64 x 64 tail, 0.75x
# for a 16 x 16 block with B = 1 (float64 and complex128), and 0.7-0.9x with
# B >= 64. It took 1.25-1.4x as long for an 8 x 8 block with B = 1 from 512
# rows, and for 4 x 4 and 8 x 8 blocks with B = 32 to 64. With 32 rows the
# split of a fold moved the low bits, as the small-matrix path above rounds
# by the product's shape; from 64 rows, and in every batched shape tried on
# 2^6 to 2^19 float64 and complex128 amplitudes, it kept the dense product's
# bits.
_SPLIT = 16
_SPLIT_ROWS = 64

# A float64 product with at least _NN_ROWS rows takes its right-hand matrix
# as a C-contiguous copy of mat^T, made once per plan (:func:`_right`), not
# as the transposed view. OpenBLAS's small-matrix dgemm (0.3.31, SkylakeX
# kernels) ran 1.25-2.4x faster with it, for D = 4 to 64 from 64 rows until
# the product leaves that path, and as fast beyond (D = 64 from 256 rows,
# D = 16 from 4096): the split 64 x 64 tail on 2^14 amplitudes took 18 us
# against 34 us. Below 64 rows the two layouts round differently (at one row
# for every D, below 64 rows at D = 32 and below 32 at D = 64); from 64 rows,
# for D = 2 to 128 up to 2^18 rows on one or two threads, they kept the same
# bits. zgemm ran no faster with it, so complex128 keeps the view.
_NN_ROWS = 64


def run_passes(vec: np.ndarray, steps: list, k: int, plans: dict | None = None) -> np.ndarray:
    """Apply the (matrix, targets) ``steps``, in order, to a k-qubit vector,
    one register pass each; ``vec`` is left as it is, and returned when there
    are no steps. Every matrix is 2-D and has ``vec``'s dtype. ``vec`` may
    hold several k-qubit registers back to back, as a complex operator's
    real and imaginary parts do (:func:`simulator.heisenberg_doubled`): each
    pass applies its step to every one of them, with the plans of one.

    Each distinct step, by the identity of its matrix and its targets, is
    planned once by :func:`_plan`, into ``plans`` when the caller passes a
    dict: a later call on k qubits with that dict reuses the plans made so
    far, so the caller keeps the dict only while it keeps the matrices
    alive. The passes then alternate between two buffers of ``vec``'s size
    and dtype, reading ``vec`` or one buffer and writing the other, so
    no pass allocates a register. Each buffer is one line-aligned allocation
    (:func:`_line_aligned`), made after the first step is planned, so that a
    fold's temporaries there never add to them.
    Both are stated to :func:`reserve` first; a caller that holds more
    states it itself. ``steps`` keeps its matrices alive through the call.

    A list that repeats a period of p steps by identity (see :func:`_period`),
    as a Trotter evolution's lowering does, costs O(p) Python work, not
    O(len(steps)). Pass i >= 3p reads and writes the buffers that pass
    i - 2p did. So passes p..3p-1 bind each distinct (step, output buffer)
    once, as a call with its operand views made (see :func:`_plan`), and
    pass i >= 3p repeats the bound call of pass p + (i - 3p) mod 2p. The
    first period's passes, and every pass of an aperiodic list, are bound as
    they run. Either way each pass makes the same numpy calls on the same
    operands, so it keeps its bits.

    This is the package's one pass loop: every caller that applies a list of
    steps to a register hands the whole list to it."""
    if not steps:
        return vec
    p = _period(steps)
    reserve(vec.nbytes, f"each register buffer of {k} qubits")
    binders = {} if plans is None else plans
    bound: dict[tuple, object] = {}
    cycle, outs = [], []  # the bound calls of passes p..3p-1, and their outputs
    bufs: tuple[np.ndarray, ...] = ()
    src = vec
    for i, (mat, targets) in enumerate(steps[: 3 * p]):
        key = (id(mat), targets)
        bind = binders.get(key)
        if bind is None:
            bind = binders[key] = _plan(mat, targets, k)
        if not bufs:
            bufs = (_line_aligned(vec.size, vec.dtype), _line_aligned(vec.size, vec.dtype))
        dst, spare = (bufs[1], bufs[0]) if src is bufs[0] else bufs
        if i < p:
            bind(src, dst, spare)()
        else:
            call = bound.get((key, dst is bufs[1]))
            if call is None:
                call = bound[key, dst is bufs[1]] = bind(src, dst, spare)
            cycle.append(call)
            outs.append(dst)
            call()
        src = dst
    rest = len(steps) - 3 * p
    if rest > 0:
        for call in itertools.islice(itertools.cycle(cycle), rest):
            call()
        src = outs[(rest - 1) % len(outs)]
    return src


_CACHE_LINE = 64


def _line_aligned(size: int, dtype) -> np.ndarray:
    """An uninitialized 1-D array of ``size`` items that starts on a cache
    line. numpy only promises 16 bytes, so where a register buffer (128 KiB
    at 7 sites) starts within a line depends on every allocation before it,
    down to the size of the compiled source: six comment lines added to
    ``pauli.py`` made the n=7 doubled evolutions about 5% slower. With both
    buffers line-aligned, that edit changed nothing, and the code without it
    ran 3-4% faster (``doubled_n7``, 3 interleaved rounds of 10 s, one
    OpenBLAS thread, x86-64)."""
    itemsize = np.dtype(dtype).itemsize
    raw = np.empty(size * itemsize + _CACHE_LINE, np.uint8)
    start = -raw.ctypes.data % _CACHE_LINE
    return raw[start:start + size * itemsize].view(dtype)


def _period(seq, same=operator.is_) -> int:
    """The smallest p dividing len(seq) with same(seq[i], seq[i + p]) for
    every i, or len(seq) when there is none (1 when ``seq`` is empty): the
    length of the part that ``seq`` repeats, as a Trotter circuit repeats
    one step. Items compare by identity unless ``same`` says otherwise, as
    steps hold numpy arrays, and only the positions where seq[0] recurs are
    tried."""
    n = len(seq)
    for p in range(1, n // 2 + 1):
        if same(seq[p], seq[0]) and n % p == 0 and all(map(same, seq, seq[p:])):
            return p
    return max(n, 1)


def _plan(mat: np.ndarray, targets: tuple[int, ...], k: int):
    """The pass of ``mat`` on ``targets`` of a k-qubit register, as a binder
    bind(src, dst, spare) -> call: call() writes the pass's result into
    ``dst``; ``spare`` is scratch of the same size and dtype, and ``src`` is
    only read. The call holds its views of the three arrays and any matrix
    folded here, so it can run again on whatever the arrays then hold. It is
    one numpy call with its operands bound, ``out`` positional, or
    :func:`_moved` or :func:`_transposed` with theirs.

    For ascending contiguous targets, with A, D = 2^m and B the sizes of the
    leading, target and trailing blocks of a register viewed as (A, D, B):

    ========================================  ===============================
    D * B <= _FOLD, or 1 < B < D with         mat (x) I_B, built here, then
    D * B <= _FOLD_NARROW, A >= _FOLD_ROWS    as B = 1 below
    block-diagonal in the leading target      one matmul of the two h x h
    qubit (:func:`_halves`), D >= _SPLIT,     diagonal quadrants M0, M1,
    with B = 1 and A >= _SPLIT_ROWS, or       h = D / 2, stacked: (A, 2, h)
    with B >= D                               viewed as (2, A, h) @ (M0^T,
                                              M1^T) for B = 1, (M0, M1) @
                                              (A, 2, h, B) for B >= D
    B = 1                                     one GEMM (A, D) @ mat^T
    B >= D                                    one batched GEMM mat @ (A, D,
                                              B); one GEMM when A = 1
    any other 1 < B < D                       (A, D, B) transposed to (A, B,
                                              D) in ``dst``, one GEMM (-1, D)
                                              @ mat^T into ``spare``,
                                              transposed back into ``dst``
    ========================================  ===============================

    Any other target order copies the target axes to the front into
    ``dst``, applies one batched product into ``spare`` and moves the axes
    back into ``dst``. Every kernel views the arrays with a free leading
    size, so they may hold several k-qubit registers back to back, each
    passed as the others are; the choices above read A of one register.
    Each kernel runs the GEMM of the one-array-per-pass kernel it
    replaced, with the same operand shapes and order, so every pass on one
    register keeps that kernel's bits; the narrow fold, which replaced chunked
    transposed GEMMs, rounds as they did only from _FOLD_ROWS rows up. The
    split leaves out only products with the exact zeros of the off-diagonal
    quadrants, and keeps the dense GEMM's bits where it is used (see
    _SPLIT_ROWS). It costs one test of ``mat`` per plan, none per pass.
    Each right-hand mat^T above is bound as :func:`_right` lays it out: a
    C-contiguous copy for float64 from _NN_ROWS rows up, where it keeps the
    view's bits, and the transposed view otherwise."""
    m = len(targets)
    dim = 2**m
    lo = targets[0] if m else 0
    if tuple(targets) != tuple(range(lo, lo + m)):
        # Axis 0 counts the registers; qubit q is axis q + 1.
        cube, axes, front = (-1,) + (2,) * k, tuple(t + 1 for t in targets), tuple(range(1, m + 1))
        return lambda src, dst, spare: partial(
            _moved, dst.reshape(cube), np.moveaxis(src.reshape(cube), axes, front), mat,
            dst.reshape(-1, dim, 2 ** (k - m)), spare.reshape(-1, dim, 2 ** (k - m)),
            np.moveaxis(spare.reshape(cube), front, axes))
    b = 2 ** (k - lo - m)
    narrow = b < dim and dim * b <= _FOLD_NARROW and 2**lo >= _FOLD_ROWS
    if 1 < b and (dim * b <= _FOLD or narrow):
        mat = (mat[:, None, :, None] * np.eye(b)[None, :, None, :]).reshape(dim * b, dim * b)
        dim, b = dim * b, 1
    shape, rows = (-1, dim, b), 2**lo
    halves, h = None, dim // 2
    if b >= dim >= _SPLIT or (b == 1 and dim >= _SPLIT and rows >= _SPLIT_ROWS):
        halves = _halves(mat)
    if halves is not None and b == 1:
        right, split = _right(np.stack(halves), rows), (-1, 2, h)
        return lambda src, dst, spare: partial(
            np.matmul, src.reshape(split).transpose(1, 0, 2), right,
            dst.reshape(split).transpose(1, 0, 2))
    if halves is not None:
        left, split = np.stack(halves), (-1, 2, h, b)
        return lambda src, dst, spare: partial(np.matmul, left, src.reshape(split), dst.reshape(split))
    if b == 1:
        right = _right(mat, rows)
        return lambda src, dst, spare: partial(np.matmul, src.reshape(-1, dim), right, dst.reshape(-1, dim))
    if b >= dim:
        return lambda src, dst, spare: partial(np.matmul, mat, src.reshape(shape), dst.reshape(shape))
    right = _right(mat, rows * b)
    return lambda src, dst, spare: partial(
        _transposed, dst.reshape(-1, b, dim), src.reshape(shape).transpose(0, 2, 1),
        dst.reshape(-1, dim), right, spare.reshape(-1, dim), dst.reshape(shape),
        spare.reshape(-1, b, dim).transpose(0, 2, 1))


def _right(mat: np.ndarray, rows: int) -> np.ndarray:
    """``mat`` transposed over its last two axes, as the right operand of a
    product with ``rows`` rows: a C-contiguous copy, made once per plan, for
    a float64 ``mat`` from _NN_ROWS rows up (see _NN_ROWS), otherwise the
    transposed view."""
    view = np.swapaxes(mat, -1, -2)
    return np.ascontiguousarray(view) if mat.dtype == np.float64 and rows >= _NN_ROWS else view


def _halves(mat: np.ndarray):
    """The two diagonal quadrants of a square ``mat`` when both off-diagonal
    quadrants are exactly zero, so that ``mat`` is block-diagonal in its
    leading target qubit; otherwise None."""
    h = len(mat) // 2
    if mat[:h, h:].any() or mat[h:, :h].any():
        return None
    return mat[:h, :h], mat[h:, h:]


def _moved(into, gathered, mat, rows, out, back):
    """The pass on targets in any other order: the target axes copied to
    the front, one product, and the axes moved back (see :func:`_plan`)."""
    np.copyto(into, gathered)
    np.matmul(mat, rows, out)
    np.copyto(into, back)


def _transposed(cols, rows, flat, right, out, into, back):
    """The pass with 1 < B < D unfolded: (A, D, B) transposed to (A, B, D),
    one GEMM, and transposed back (see :func:`_plan`)."""
    np.copyto(cols, rows)
    np.matmul(flat, right, out)
    np.copyto(into, back)


def amplitude_matrix(vec: np.ndarray, n: int) -> np.ndarray:
    """View a doubled-register vector (site-interleaved (L,R) pairs) as the
    2^n x 2^n matrix S with S[i, j] = amplitude on |i>_L |j>_R."""
    t = vec.reshape((2,) * (2 * n))
    t = np.transpose(t, [2 * s for s in range(n)] + [2 * s + 1 for s in range(n)])
    return t.reshape(2**n, 2**n).copy()


def from_amplitude_matrix(mat: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`amplitude_matrix`."""
    t = mat.reshape((2,) * (2 * n))
    order = np.argsort([2 * s for s in range(n)] + [2 * s + 1 for s in range(n)])
    return np.transpose(t, order).reshape(-1)
