"""Memory: mapping, protection, faults, growth."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cpu.memory import (
    Memory,
    MemoryFault,
    PROT_EXEC,
    PROT_READ,
    PROT_WRITE,
)


def _memory_with_region(prot=PROT_READ | PROT_WRITE, size=0x1000):
    memory = Memory()
    memory.map_region(0x1000, size, prot, name="test")
    return memory


class TestMapping:
    def test_overlap_rejected(self):
        memory = _memory_with_region()
        with pytest.raises(ValueError):
            memory.map_region(0x1800, 0x1000, PROT_READ)

    def test_adjacent_regions_allowed(self):
        memory = _memory_with_region()
        memory.map_region(0x2000, 0x1000, PROT_READ)
        assert len(memory.regions()) == 2

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            Memory().map_region(0x1000, 0, PROT_READ)

    def test_outside_address_space_rejected(self):
        with pytest.raises(ValueError):
            Memory().map_region(0xFFFFF000, 0x2000, PROT_READ)

    def test_initial_data(self):
        memory = Memory()
        memory.map_region(0x1000, 16, PROT_READ, data=b"hello")
        assert memory.read(0x1000, 5) == b"hello"
        assert memory.read(0x1005, 3) == bytes(3)

    def test_find_region_by_name(self):
        memory = _memory_with_region()
        assert memory.find_region("test").start == 0x1000
        with pytest.raises(KeyError):
            memory.find_region("ghost")


class TestAccess:
    def test_read_write_round_trip(self):
        memory = _memory_with_region()
        memory.write(0x1010, b"abc")
        assert memory.read(0x1010, 3) == b"abc"

    def test_u32_round_trip(self):
        memory = _memory_with_region()
        memory.write_u32(0x1000, 0xDEADBEEF)
        assert memory.read_u32(0x1000) == 0xDEADBEEF

    def test_unmapped_read_faults(self):
        with pytest.raises(MemoryFault):
            _memory_with_region().read(0x9000, 4)

    def test_read_past_end_faults(self):
        memory = _memory_with_region(size=16)
        with pytest.raises(MemoryFault):
            memory.read(0x100C, 8)

    def test_write_to_readonly_faults(self):
        memory = _memory_with_region(prot=PROT_READ)
        with pytest.raises(MemoryFault):
            memory.write(0x1000, b"x")

    def test_force_bypasses_protection(self):
        memory = _memory_with_region(prot=PROT_READ)
        memory.write(0x1000, b"x", force=True)
        assert memory.read(0x1000, 1) == b"x"

    def test_read_from_writeonly_faults(self):
        memory = _memory_with_region(prot=PROT_WRITE)
        with pytest.raises(MemoryFault):
            memory.read(0x1000, 1)

    def test_executable_flag(self):
        memory = _memory_with_region(prot=PROT_READ | PROT_EXEC)
        assert memory.executable(0x1000)
        assert not memory.executable(0x9999)


class TestCString:
    def test_reads_until_nul(self):
        memory = _memory_with_region()
        memory.write(0x1000, b"hello\x00world")
        assert memory.read_cstring(0x1000) == b"hello"

    def test_unterminated_faults(self):
        memory = _memory_with_region(size=16)
        memory.write(0x1000, b"x" * 16)
        with pytest.raises(MemoryFault):
            memory.read_cstring(0x1000)

    def test_length_cap(self):
        memory = _memory_with_region()
        memory.write(0x1000, b"a" * 64 + b"\x00")
        with pytest.raises(MemoryFault):
            memory.read_cstring(0x1000, max_len=32)


class TestGrow:
    def test_grow_heap(self):
        memory = _memory_with_region()
        memory.grow_region("test", 0x2000)
        memory.write(0x1000 + 0x1800, b"z")

    def test_grow_collision(self):
        memory = _memory_with_region()
        memory.map_region(0x2000, 0x1000, PROT_READ, name="next")
        with pytest.raises(MemoryFault):
            memory.grow_region("test", 0x1001)

    def test_shrink(self):
        memory = _memory_with_region()
        memory.grow_region("test", 0x800)
        with pytest.raises(MemoryFault):
            memory.read(0x1000 + 0x900, 1)


class TestProtect:
    def test_protect_notifies_watchers_and_bumps_version(self):
        memory = _memory_with_region(PROT_READ | PROT_EXEC)
        region = memory.region_at(0x1000)
        seen = []
        region.watchers.append(lambda address, size: seen.append((address, size)))
        version = region.version
        memory.protect(0x1000, PROT_READ)
        assert memory.region_at(0x1000) is region
        assert region.prot == PROT_READ
        assert seen == [(0x1000, 0x1000)] and region.version > version

    def test_protect_copies_a_fork_shared_region(self):
        parent = _memory_with_region(PROT_READ | PROT_EXEC)
        shared = parent.region_at(0x1000)
        child = Memory()
        child.adopt_region(shared)
        child.protect(0x1000, PROT_READ | PROT_WRITE | PROT_EXEC)
        private = child.region_at(0x1000)
        assert private is not shared and not private.shared
        child.write(0x1000, b"\xff")
        assert parent.read(0x1000, 1) == b"\x00"
        assert shared.prot == PROT_READ | PROT_EXEC
        with pytest.raises(MemoryFault, match="protection"):
            parent.write(0x1000, b"\xff")


class TestProperties:
    @given(
        offset=st.integers(min_value=0, max_value=0xFF0),
        data=st.binary(min_size=1, max_size=16),
    )
    def test_write_then_read(self, offset, data):
        memory = _memory_with_region()
        memory.write(0x1000 + offset, data)
        assert memory.read(0x1000 + offset, len(data)) == data

    @given(value=st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_u32_identity(self, value):
        memory = _memory_with_region()
        memory.write_u32(0x1000, value)
        assert memory.read_u32(0x1000) == value
