"""Counter-based random streams with one independent substream per trial.

Every draw is a pure function of ``(seed, trial_index, draw_index)``: the
seed and trial index are avalanched through the SplitMix64 finalizer into a
per-trial initial state, and draw ``j`` is the ``j``-th output of the
SplitMix64 sequence started there.  No state is shared between trials, so
blocks of trials can be generated in any order, in chunks of any size, or on
any number of workers and still produce bit-identical results.
"""

from __future__ import annotations

import numbers

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_STREAM_SALT = np.uint64(0x632BE59BD9B4E019)

# doubles take the top 53 bits of a 64-bit word
_INV_2_53 = 1.0 / float(1 << 53)


def _mix64(z: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64 finalizer applied in place to uint64 ``z``; ``tmp`` takes the shifts."""
    tmp = np.empty_like(z) if tmp is None else tmp
    with np.errstate(over="ignore"):
        z ^= np.right_shift(z, np.uint64(30), out=tmp)
        z *= _MIX_A
        z ^= np.right_shift(z, np.uint64(27), out=tmp)
        z *= _MIX_B
        z ^= np.right_shift(z, np.uint64(31), out=tmp)
    return z


def _stream_state(seed: int, trial_index: np.ndarray, out=None, tmp=None) -> np.ndarray:
    """Initial substream state for each trial index, in ``out`` or a new array.

    ``trial_index`` is a uint64 array; ``tmp``, of its shape, takes the shifts.
    """
    base = _mix64(np.array(seed, dtype=np.uint64))
    state = np.add(trial_index, _STREAM_SALT, out=out)  # wraps mod 2**64
    _mix64(state, tmp)
    state ^= base
    return state


def check_trials(first_trial, last_trial) -> tuple[int, int]:
    """The range as ints; ValueError unless ``0 <= first_trial <= last_trial <= 2**64``.

    Trial indices are 64-bit counters: a range past ``2**64`` would wrap onto
    trial 0 and reuse its draws.
    """
    for name, value in (("first_trial", first_trial), ("last_trial", last_trial)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if first_trial < 0:
        raise ValueError(f"first_trial must be >= 0, got {first_trial!r}")
    if last_trial < first_trial:
        raise ValueError("empty trial range")
    if last_trial > 2**64:
        raise ValueError(f"trials {first_trial}..{last_trial - 1} run past 2**64 - 1, the "
                         f"last 64-bit trial index")
    return int(first_trial), int(last_trial)


def uniform_block(seed: int, first_trial: int, last_trial: int, n_draws: int,
                  out: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
    """Uniform [0, 1) doubles for a contiguous block of trials.

    Returns an array of shape ``(n_draws, last_trial - first_trial)`` where
    row ``j`` holds draw ``j`` of every trial in the block: ``out`` when it
    is given, a float64 array of that shape.  ``work``, a ``(3, last_trial
    - first_trial)`` uint64 array, takes the substream states, or new arrays
    do.
    """
    first_trial, last_trial = check_trials(first_trial, last_trial)
    s0, word, tmp = (None, None, None) if work is None else work
    s0 = _stream_state(seed, np.arange(first_trial, last_trial, dtype=np.uint64), s0, tmp)
    if out is None:
        out = np.empty((n_draws, len(s0)), dtype=np.float64)
    if word is None:
        word, tmp = np.empty_like(s0), np.empty_like(s0)
    for j in range(n_draws):
        with np.errstate(over="ignore"):  # the draw's state step wraps mod 2**64
            np.add(s0, np.uint64(j + 1) * _GOLDEN, out=word)
        _mix64(word, tmp)  # mixed in place, then its top 53 bits scaled into row j
        np.multiply(np.right_shift(word, np.uint64(11), out=word), _INV_2_53, out=out[j])
    return out
