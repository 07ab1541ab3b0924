"""The normalized min-sum decoder."""

import numpy as np
import pytest

from repro.errors import CodecError
from repro.ldpc import MinSumDecoder


def _noisy(code, encoder, rber, seed):
    rng = np.random.default_rng(seed)
    word = encoder.random_codeword(seed=seed)
    errors = (rng.random(code.n) < rber).astype(np.uint8)
    return word, word ^ errors, int(errors.sum())


def test_clean_word_decodes_in_one_iteration(code64, encoder64):
    word = encoder64.random_codeword(seed=0)
    result = MinSumDecoder(code64).decode(word)
    assert result.success
    assert result.iterations == 1
    assert result.initial_syndrome_weight == 0
    assert np.array_equal(result.bits, word)


def test_min_sum_corrects_low_rber(code64, encoder64):
    for seed in range(5):
        word, noisy, n_err = _noisy(code64, encoder64, 0.003, seed)
        if n_err == 0:
            continue
        result = MinSumDecoder(code64).decode(noisy)
        assert result.success
        assert np.array_equal(result.bits, word)
        assert result.initial_syndrome_weight > 0


def test_min_sum_fails_at_high_rber(code64, encoder64):
    failures = 0
    for seed in range(5):
        _, noisy, _ = _noisy(code64, encoder64, 0.05, seed + 100)
        result = MinSumDecoder(code64).decode(noisy)
        failures += result.failed
    assert failures == 5


def test_iterations_grow_with_rber(code64, encoder64):
    def avg_iters(rber):
        total = 0
        for seed in range(6):
            _, noisy, _ = _noisy(code64, encoder64, rber, seed + 50)
            total += MinSumDecoder(code64).decode(noisy).iterations
        return total / 6

    assert avg_iters(0.001) < avg_iters(0.005) <= avg_iters(0.009)


def test_failed_decode_burns_iteration_cap(code64, encoder64):
    _, noisy, _ = _noisy(code64, encoder64, 0.08, 7)
    decoder = MinSumDecoder(code64, max_iterations=12)
    result = decoder.decode(noisy)
    assert result.failed
    assert result.iterations == 12


def test_decoder_validation(code64):
    with pytest.raises(CodecError):
        MinSumDecoder(code64, max_iterations=0)
    with pytest.raises(CodecError):
        MinSumDecoder(code64, channel_p=0.9)
    with pytest.raises(CodecError):
        MinSumDecoder(code64).decode(np.zeros(5, dtype=np.uint8))


def test_decode_does_not_mutate_input(code64, encoder64):
    _, noisy, _ = _noisy(code64, encoder64, 0.004, 3)
    before = noisy.copy()
    MinSumDecoder(code64).decode(noisy)
    assert np.array_equal(noisy, before)
