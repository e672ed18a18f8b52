import ctypes
import io

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


#: A line of /proc/self/maps that names an OpenBLAS library.
MAPS_LINE = "7f0000000000-7f0000001000 r-xp 00000000 08:01 42 /opt/lib/libopenblas.so.0\n"


class TestFindOpenblas:
    """`_openblas` is None wherever no usable OpenBLAS is found (uncached calls)."""

    def test_unreadable_maps(self, monkeypatch):
        def unreadable(*args, **kwargs):
            raise PermissionError("/proc/self/maps")

        monkeypatch.setattr(blas, "open", unreadable, raising=False)
        assert blas._openblas.__wrapped__() is None

    def test_a_library_ctypes_cannot_open(self, monkeypatch):
        def cannot_open(path):
            raise OSError(f"{path}: cannot open shared object file")

        monkeypatch.setattr(blas, "open", lambda *a, **k: io.StringIO(MAPS_LINE), raising=False)
        monkeypatch.setattr(ctypes, "CDLL", cannot_open)
        assert blas._openblas.__wrapped__() is None

    def test_a_library_without_thread_symbols(self, monkeypatch):
        opened = []
        monkeypatch.setattr(blas, "open", lambda *a, **k: io.StringIO(MAPS_LINE), raising=False)
        monkeypatch.setattr(ctypes, "CDLL", lambda path: opened.append(path) or object())
        assert blas._openblas.__wrapped__() is None
        assert opened == ["/opt/lib/libopenblas.so.0"]
