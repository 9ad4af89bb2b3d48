//! The byte-addressed memory interface shared by the reference interpreter
//! and the detailed simulator.
//!
//! Unwritten memory reads as zero, which keeps wrong-path loads (after a
//! branch misprediction) well defined without any fault machinery.

/// Byte-addressable 32-bit memory.
///
/// Multi-byte accessors are little-endian and have default implementations
/// in terms of the byte accessors; implementors may override them for
/// speed. Addresses wrap modulo 2^32.
pub trait Memory {
    /// Read one byte. Unwritten locations read as zero.
    fn read_u8(&self, addr: u32) -> u8;

    /// Write one byte.
    fn write_u8(&mut self, addr: u32, value: u8);

    /// Read a little-endian `u32`.
    fn read_u32(&self, addr: u32) -> u32 {
        let mut bytes = [0u8; 4];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = self.read_u8(addr.wrapping_add(i as u32));
        }
        u32::from_le_bytes(bytes)
    }

    /// Write a little-endian `u32`.
    fn write_u32(&mut self, addr: u32, value: u32) {
        for (i, b) in value.to_le_bytes().iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), *b);
        }
    }

    /// Read a little-endian `u64`.
    fn read_u64(&self, addr: u32) -> u64 {
        let lo = self.read_u32(addr) as u64;
        let hi = self.read_u32(addr.wrapping_add(4)) as u64;
        lo | (hi << 32)
    }

    /// Write a little-endian `u64`.
    fn write_u64(&mut self, addr: u32, value: u64) {
        self.write_u32(addr, value as u32);
        self.write_u32(addr.wrapping_add(4), (value >> 32) as u32);
    }

    /// Read `width` bytes (1, 4 or 8) as raw zero-extended bits.
    ///
    /// # Panics
    /// Panics on an unsupported width.
    fn read_bits(&self, addr: u32, width: u32) -> u64 {
        match width {
            1 => self.read_u8(addr) as u64,
            4 => self.read_u32(addr) as u64,
            8 => self.read_u64(addr),
            w => panic!("unsupported access width {w}"),
        }
    }

    /// Write the low `width` bytes (1, 4 or 8) of `bits`.
    ///
    /// # Panics
    /// Panics on an unsupported width.
    fn write_bits(&mut self, addr: u32, width: u32, bits: u64) {
        match width {
            1 => self.write_u8(addr, bits as u8),
            4 => self.write_u32(addr, bits as u32),
            8 => self.write_u64(addr, bits),
            w => panic!("unsupported access width {w}"),
        }
    }

    /// Write a contiguous block of bytes starting at `addr` (bulk image
    /// loading).
    fn write_block(&mut self, addr: u32, bytes: &[u8]) {
        for (i, b) in bytes.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), *b);
        }
    }
}

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Multiplicative (Fibonacci) hash of a page number.
///
/// Every fetch, load and store looks its page up, so the map's hasher is
/// on the interpreter's hottest path. Page numbers come from the
/// simulated program, not from an adversary, and nothing iterates the
/// map, so SipHash's flooding resistance and its cost buy nothing here.
/// The odd multiplier permutes the low bits (distinct pages never share
/// a full hash) and spreads every key bit into the high bits the table
/// uses for its control bytes.
#[derive(Debug, Default, Clone, Copy)]
struct PageHasher(u64);

impl std::hash::Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = u64::from(n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// A sparse, paged memory: only touched 4 KB pages are allocated.
#[derive(Debug, Default, Clone)]
pub struct PagedMemory {
    pages: std::collections::HashMap<
        u32,
        Box<[u8; PAGE_SIZE]>,
        std::hash::BuildHasherDefault<PageHasher>,
    >,
}

impl PagedMemory {
    /// Create an empty memory (all bytes read as zero).
    pub fn new() -> PagedMemory {
        PagedMemory::default()
    }

    /// Number of 4 KB pages currently allocated.
    pub fn pages_allocated(&self) -> usize {
        self.pages.len()
    }

    /// Bytes of page storage currently allocated (what a clone copies).
    pub fn bytes_allocated(&self) -> usize {
        self.pages.len() * PAGE_SIZE
    }
}

impl Memory for PagedMemory {
    fn read_u8(&self, addr: u32) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(page) => page[(addr as usize) & (PAGE_SIZE - 1)],
            None => 0,
        }
    }

    fn write_u8(&mut self, addr: u32, value: u8) {
        let page = self
            .pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
        page[(addr as usize) & (PAGE_SIZE - 1)] = value;
    }

    fn read_u32(&self, addr: u32) -> u32 {
        // Fast path for the overwhelmingly common aligned in-page case.
        if addr & 3 == 0 {
            if let Some(page) = self.pages.get(&(addr >> PAGE_SHIFT)) {
                let off = (addr as usize) & (PAGE_SIZE - 1);
                return u32::from_le_bytes(page[off..off + 4].try_into().unwrap());
            }
            return 0;
        }
        let mut bytes = [0u8; 4];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = self.read_u8(addr.wrapping_add(i as u32));
        }
        u32::from_le_bytes(bytes)
    }

    fn write_u32(&mut self, addr: u32, value: u32) {
        // One page-table lookup for the aligned in-page case instead of
        // four (every committed store lands here via `write_bits`).
        if addr & 3 == 0 {
            let page = self
                .pages
                .entry(addr >> PAGE_SHIFT)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
            let off = (addr as usize) & (PAGE_SIZE - 1);
            page[off..off + 4].copy_from_slice(&value.to_le_bytes());
            return;
        }
        for (i, b) in value.to_le_bytes().iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), *b);
        }
    }

    fn read_u64(&self, addr: u32) -> u64 {
        if addr & 7 == 0 {
            if let Some(page) = self.pages.get(&(addr >> PAGE_SHIFT)) {
                let off = (addr as usize) & (PAGE_SIZE - 1);
                return u64::from_le_bytes(page[off..off + 8].try_into().unwrap());
            }
            return 0;
        }
        let lo = self.read_u32(addr) as u64;
        let hi = self.read_u32(addr.wrapping_add(4)) as u64;
        lo | (hi << 32)
    }

    fn write_u64(&mut self, addr: u32, value: u64) {
        if addr & 7 == 0 {
            let page = self
                .pages
                .entry(addr >> PAGE_SHIFT)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
            let off = (addr as usize) & (PAGE_SIZE - 1);
            page[off..off + 8].copy_from_slice(&value.to_le_bytes());
            return;
        }
        self.write_u32(addr, value as u32);
        self.write_u32(addr.wrapping_add(4), (value >> 32) as u32);
    }

    fn write_block(&mut self, addr: u32, bytes: &[u8]) {
        // One page-table lookup per touched 4 KB page.
        let mut off = 0usize;
        while off < bytes.len() {
            let a = addr.wrapping_add(off as u32);
            let start = (a as usize) & (PAGE_SIZE - 1);
            let n = (PAGE_SIZE - start).min(bytes.len() - off);
            let page = self
                .pages
                .entry(a >> PAGE_SHIFT)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
            page[start..start + n].copy_from_slice(&bytes[off..off + n]);
            off += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill() {
        let m = PagedMemory::new();
        assert_eq!(m.read_u8(0), 0);
        assert_eq!(m.read_u32(0xdead_bee0), 0);
        assert_eq!(m.read_u64(12), 0);
    }

    #[test]
    fn round_trips() {
        let mut m = PagedMemory::new();
        m.write_u32(0x1000, 0xdead_beef);
        assert_eq!(m.read_u32(0x1000), 0xdead_beef);
        assert_eq!(m.read_u8(0x1000), 0xef); // little-endian
        m.write_u64(0x2000, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u64(0x2000), 0x0123_4567_89ab_cdef);
        m.write_u8(0x3000, 0x5a);
        assert_eq!(m.read_u8(0x3000), 0x5a);
    }

    #[test]
    fn cross_page_access() {
        let mut m = PagedMemory::new();
        m.write_u32(0x1ffe, 0xaabb_ccdd);
        assert_eq!(m.read_u32(0x1ffe), 0xaabb_ccdd);
        assert_eq!(m.pages_allocated(), 2);
    }

    #[test]
    fn width_dispatch() {
        let mut m = PagedMemory::new();
        m.write_bits(0x100, 1, 0xfff); // only low byte stored
        assert_eq!(m.read_bits(0x100, 1), 0xff);
        m.write_bits(0x200, 8, u64::MAX);
        assert_eq!(m.read_bits(0x200, 8), u64::MAX);
        assert_eq!(m.read_bits(0x200, 4), 0xffff_ffff);
    }

    #[test]
    fn address_wraparound() {
        let mut m = PagedMemory::new();
        m.write_u32(u32::MAX - 1, 0x1122_3344);
        assert_eq!(m.read_u32(u32::MAX - 1), 0x1122_3344);
        assert_eq!(m.read_u8(1), 0x11); // wrapped high byte
    }
}
