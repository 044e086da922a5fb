//! CRC-32 (IEEE 802.3 polynomial, reflected), table-driven,
//! slicing-by-8.
//!
//! Used by the bzip-like container to detect corrupted blocks, the same job
//! bzip2's per-block CRC does, and by the zsmiles containers and index.
//!
//! The bytewise loop folds one byte per table lookup, and each lookup
//! waits on the one before. Slicing-by-8 folds eight bytes per step:
//! table `k` advances a byte's contribution past `k` further zero bytes,
//! so the eight lookups of a step are independent and only their XOR
//! feeds the next step. The tail of fewer than eight bytes takes the
//! bytewise loop.

const POLY: u32 = 0xEDB8_8320;

static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Fold `data` into the register one byte per lookup.
fn update_bytewise(mut c: u32, data: &[u8]) -> u32 {
    for &b in data {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Fold `data` into the register eight bytes per step.
fn update_sliced(mut c: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ c;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    update_bytewise(c, chunks.remainder())
}

/// Streaming CRC-32.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    pub fn update(&mut self, data: &[u8]) {
        self.state = update_sliced(self.state, data);
    }

    pub fn finish(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC of a buffer.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

/// `mat * vec` over GF(2): each set bit of `vec` selects a row to XOR.
fn gf2_matrix_times(mat: &[u32; 32], mut vec: u32) -> u32 {
    let mut sum = 0;
    let mut i = 0;
    while vec != 0 {
        if vec & 1 != 0 {
            sum ^= mat[i];
        }
        vec >>= 1;
        i += 1;
    }
    sum
}

fn gf2_matrix_square(square: &mut [u32; 32], mat: &[u32; 32]) {
    for n in 0..32 {
        square[n] = gf2_matrix_times(mat, mat[n]);
    }
}

/// `crc32(A ‖ B)` from `crc32(A)`, `crc32(B)` and `len(B)` — without the
/// bytes of either part.
///
/// CRC-32 is linear over GF(2), so appending `len2` bytes to a stream
/// transforms its CRC by a fixed matrix (the "advance one zero byte"
/// operator raised to the `len2`-th power, built here by repeated
/// squaring). This is what lets an archive writer stream everything
/// *after* a fixed-size header, patch the header once the payload length
/// is known, and still produce the exact whole-file checksum: combine the
/// 48-byte header's CRC with the streamed tail's.
pub fn crc32_combine(mut crc1: u32, crc2: u32, mut len2: u64) -> u32 {
    if len2 == 0 {
        return crc1;
    }
    let mut even = [0u32; 32];
    let mut odd = [0u32; 32];
    // Operator for advancing the CRC register past one zero bit.
    odd[0] = POLY;
    let mut row = 1u32;
    for cell in odd.iter_mut().skip(1) {
        *cell = row;
        row <<= 1;
    }
    // Square twice: odd now advances past one zero *byte*.
    gf2_matrix_square(&mut even, &odd);
    gf2_matrix_square(&mut odd, &even);
    loop {
        gf2_matrix_square(&mut even, &odd);
        if len2 & 1 != 0 {
            crc1 = gf2_matrix_times(&even, crc1);
        }
        len2 >>= 1;
        if len2 == 0 {
            break;
        }
        gf2_matrix_square(&mut odd, &even);
        if len2 & 1 != 0 {
            crc1 = gf2_matrix_times(&odd, crc1);
        }
        len2 >>= 1;
        if len2 == 0 {
            break;
        }
    }
    crc1 ^ crc2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard test vectors for CRC-32/IEEE.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data = b"COc1cc(C=O)ccc1O repeated stuff COc1cc(C=O)ccc1O";
        let mut c = Crc32::new();
        c.update(&data[..10]);
        c.update(&data[10..30]);
        c.update(&data[30..]);
        assert_eq!(c.finish(), crc32(data));
    }

    #[test]
    fn combine_matches_concatenation() {
        let a: &[u8] = b"COc1cc(C=O)ccc1O";
        let b: &[u8] = b"C1=CC=C(C=C1)C(=O)CC(=O)C2=CC=CC=C2";
        for split in [0usize, 1, 7, a.len()] {
            let (x, y) = (&a[..split], &a[split..]);
            assert_eq!(
                crc32_combine(crc32(x), crc32(y), y.len() as u64),
                crc32(a),
                "split={split}"
            );
        }
        let joined: Vec<u8> = a.iter().chain(b).copied().collect();
        assert_eq!(
            crc32_combine(crc32(a), crc32(b), b.len() as u64),
            crc32(&joined)
        );
        // Empty suffix is the identity; long zero-heavy suffixes work too.
        assert_eq!(crc32_combine(crc32(a), crc32(b""), 0), crc32(a));
        let zeros = vec![0u8; 100_000];
        let mut with_zeros = a.to_vec();
        with_zeros.extend_from_slice(&zeros);
        assert_eq!(
            crc32_combine(crc32(a), crc32(&zeros), zeros.len() as u64),
            crc32(&with_zeros)
        );
    }

    /// A deterministic xorshift byte stream.
    fn noise(seed: u64, n: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    fn bytewise(data: &[u8]) -> u32 {
        update_bytewise(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    #[test]
    fn sliced_equals_bytewise_at_every_short_length() {
        let data = noise(7, 64);
        for len in 0..=64 {
            assert_eq!(crc32(&data[..len]), bytewise(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn sliced_equals_bytewise_on_random_buffers_at_random_alignments() {
        let data = noise(11, 1 << 14);
        let picks = noise(13, 400);
        for p in picks.chunks_exact(4) {
            let start = (p[0] as usize) % 64;
            let len = (u16::from_le_bytes([p[1], p[2]]) as usize) % (data.len() - start);
            let buf = &data[start..start + len];
            assert_eq!(crc32(buf), bytewise(buf), "start {start} len {len}");
        }
    }

    #[test]
    fn streaming_at_random_split_points_equals_oneshot() {
        let data = noise(17, 5000);
        let splits = noise(19, 300);
        for round in splits.chunks_exact(3) {
            let mut c = Crc32::new();
            let mut at = 0;
            for &step in round {
                let to = (at + step as usize * 7).min(data.len());
                c.update(&data[at..to]);
                at = to;
            }
            c.update(&data[at..]);
            assert_eq!(c.finish(), bytewise(&data), "splits {round:?}");
        }
    }

    #[test]
    fn combine_agrees_with_bytewise_at_random_cuts() {
        let data = noise(23, 3000);
        for cut in noise(29, 50).iter().map(|&b| b as usize * 11) {
            let (a, b) = data.split_at(cut);
            assert_eq!(
                crc32_combine(crc32(a), crc32(b), b.len() as u64),
                bytewise(&data),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let a = b"CCOCCN".to_vec();
        let mut b = a.clone();
        b[3] ^= 0x01;
        assert_ne!(crc32(&a), crc32(&b));
    }
}
