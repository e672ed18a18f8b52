import pytest

from sofreg import blas


class FakeOpenblas:
    """A (get, set) pair in place of the library's; records the set calls."""

    def __init__(self, count):
        self.count = count
        self.set_calls = []

    def get(self):
        return self.count

    def set(self, count):
        self.set_calls.append(count)
        self.count = count


@pytest.fixture()
def fake_openblas(monkeypatch):
    def install(count):
        fake = FakeOpenblas(count)
        monkeypatch.setattr(blas, "_openblas", lambda: (fake.get, fake.set))
        return fake

    return install


class TestSetBlasThreads:
    def test_the_current_count_calls_no_setter(self, fake_openblas):
        # a set call, even to the current count, starts the library's server
        # thread in a freshly forked process
        fake = fake_openblas(1)
        assert blas.set_blas_threads(1) == 1
        assert fake.set_calls == []

    def test_another_count_calls_the_setter_once(self, fake_openblas):
        fake = fake_openblas(2)
        assert blas.set_blas_threads(1) == 2
        assert fake.set_calls == [1]
        assert fake.count == 1

    @pytest.mark.parametrize("count, set_calls", [(1, []), (2, [1, 2])])
    def test_single_thread_block_sets_only_a_changed_count(self, fake_openblas, count,
                                                           set_calls):
        fake = fake_openblas(count)
        with blas.single_blas_thread():
            assert fake.count == 1
        assert fake.set_calls == set_calls
        assert fake.count == count

    def test_no_openblas_does_nothing(self, monkeypatch):
        monkeypatch.setattr(blas, "_openblas", lambda: None)
        assert blas.set_blas_threads(3) is None
        with blas.single_blas_thread():
            pass
