from carveq.pairing import cantor_pair, cantor_unpair


def test_pinned_values():
    assert cantor_pair(0, 0) == 0
    assert cantor_pair(1, 0) == 1
    assert cantor_pair(0, 1) == 2
    assert cantor_pair(1, 1) == 4
    assert cantor_unpair(4) == (1, 1)


def test_inverse_on_first_million():
    for n in range(10**6):
        i, j = cantor_unpair(n)
        assert cantor_pair(i, j) == n


def test_inverse_on_grid():
    for i in range(60):
        for j in range(60):
            assert cantor_unpair(cantor_pair(i, j)) == (i, j)
