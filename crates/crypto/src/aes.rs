//! The AES block cipher (FIPS-197), with 128- and 256-bit keys —
//! encryption only.
//!
//! CTR mode (the only mode in this workspace) never runs the inverse
//! cipher, so there is none. Each round is four lookups per column into
//! 32-bit T-tables that fold SubBytes, ShiftRows and MixColumns together,
//! built at compile time from the S-box; the last round uses the S-box
//! alone. [CTR](crate::ctr) encrypts several counter blocks at once with
//! their rounds run side by side. The table indices depend on the key, so
//! the cipher is cache-timing observable — see the crate-level security
//! note.
//!
//! The byte-oriented FIPS-197 cipher (S-box lookups plus `xtime`-based
//! MixColumns) is kept under `#[cfg(test)]` as the reference the T-table
//! rounds are checked against.

/// AES block size in bytes.
pub const BLOCK_LEN: usize = 16;

/// The AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiplication by x in GF(2^8) with the AES polynomial.
#[inline]
const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// The round T-table for row `row` of a column: entry `x` is the
/// MixColumns image of `S(x)` placed in that row, as a big-endian column
/// word — `(2·S(x), S(x), S(x), 3·S(x))` rotated right by `8·row` bits.
const fn t_table(row: u32) -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        let word = u32::from_be_bytes([xtime(s), s, s, xtime(s) ^ s]);
        table[i] = word.rotate_right(8 * row);
        i += 1;
    }
    table
}

static TE0: [u32; 256] = t_table(0);
static TE1: [u32; 256] = t_table(1);
static TE2: [u32; 256] = t_table(2);
static TE3: [u32; 256] = t_table(3);

/// Round keys of the largest variant: AES-256 has 14 rounds, 15 keys.
const MAX_ROUND_KEYS: usize = 15;

/// One AES state or round key: four big-endian column words.
type Words = [u32; 4];

/// An expanded AES key, usable for block encryption.
///
/// The schedule lives inline (60 words, the AES-256 maximum), so building
/// one per chunk allocates nothing.
///
/// # Example
///
/// ```
/// use freqdedup_crypto::aes::Aes;
///
/// // FIPS-197 appendix C.1.
/// let key: [u8; 16] = std::array::from_fn(|i| i as u8);
/// let mut block: [u8; 16] = std::array::from_fn(|i| (i as u8) * 0x11);
/// Aes::new_128(&key).encrypt_block(&mut block);
/// assert_eq!(block[..4], [0x69, 0xc4, 0xe0, 0xd8]);
/// ```
#[derive(Clone)]
pub struct Aes {
    round_keys: [Words; MAX_ROUND_KEYS],
    rounds: usize,
}

impl std::fmt::Debug for Aes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes").field("rounds", &self.rounds).finish()
    }
}

impl Aes {
    /// Expands a 128-bit key.
    #[must_use]
    pub fn new_128(key: &[u8; 16]) -> Self {
        Self::expand(key)
    }

    /// Expands a 256-bit key.
    #[must_use]
    pub fn new_256(key: &[u8; 32]) -> Self {
        Self::expand(key)
    }

    /// FIPS-197 key expansion of a 4- or 8-word key (`Nr = Nk + 6`).
    fn expand(key: &[u8]) -> Self {
        let nk = key.len() / 4;
        let rounds = nk + 6;
        let mut w = [0u32; 4 * MAX_ROUND_KEYS];
        for (word, bytes) in w.iter_mut().zip(key.chunks_exact(4)) {
            *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        for i in nk..4 * (rounds + 1) {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp = sub_word(temp.rotate_left(8)) ^ (u32::from(RCON[i / nk - 1]) << 24);
            } else if nk > 6 && i % nk == 4 {
                temp = sub_word(temp);
            }
            w[i] = w[i - nk] ^ temp;
        }
        let mut round_keys = [[0u32; 4]; MAX_ROUND_KEYS];
        for (rk, words) in round_keys.iter_mut().zip(w.chunks_exact(4)) {
            rk.copy_from_slice(words);
        }
        Aes { round_keys, rounds }
    }

    /// Encrypts one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; BLOCK_LEN]) {
        self.encrypt_blocks(std::array::from_mut(block));
    }

    /// Encrypts `N` independent 16-byte blocks in place, running their
    /// rounds side by side so the table lookups of one block overlap
    /// those of the others.
    pub(crate) fn encrypt_blocks<const N: usize>(&self, blocks: &mut [[u8; BLOCK_LEN]; N]) {
        let (first, rest) = self.round_keys.split_first().expect("15 round keys");
        let (middle, rest) = rest.split_at(self.rounds - 1);
        let last = &rest[0];
        let mut states = blocks.map(|block| {
            let mut s = [0u32; 4];
            for (c, (word, bytes)) in s.iter_mut().zip(block.chunks_exact(4)).enumerate() {
                *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) ^ first[c];
            }
            s
        });
        for rk in middle {
            for s in &mut states {
                *s = round(s, rk);
            }
        }
        for (block, s) in blocks.iter_mut().zip(&states) {
            let out = final_round(s, last);
            for (bytes, word) in block.chunks_exact_mut(4).zip(out) {
                bytes.copy_from_slice(&word.to_be_bytes());
            }
        }
    }

    /// Number of rounds (10 for AES-128, 14 for AES-256).
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.rounds
    }
}

fn sub_word(word: u32) -> u32 {
    u32::from_be_bytes(word.to_be_bytes().map(|b| SBOX[usize::from(b)]))
}

/// One full round — SubBytes, ShiftRows, MixColumns, AddRoundKey: output
/// column `c` takes row `r` from input column `c + r`.
#[inline(always)]
fn round(s: &Words, rk: &Words) -> Words {
    [
        mix_column(s[0], s[1], s[2], s[3]) ^ rk[0],
        mix_column(s[1], s[2], s[3], s[0]) ^ rk[1],
        mix_column(s[2], s[3], s[0], s[1]) ^ rk[2],
        mix_column(s[3], s[0], s[1], s[2]) ^ rk[3],
    ]
}

/// The last round, which has no MixColumns.
#[inline(always)]
fn final_round(s: &Words, rk: &Words) -> Words {
    [
        sub_column(s[0], s[1], s[2], s[3]) ^ rk[0],
        sub_column(s[1], s[2], s[3], s[0]) ^ rk[1],
        sub_column(s[2], s[3], s[0], s[1]) ^ rk[2],
        sub_column(s[3], s[0], s[1], s[2]) ^ rk[3],
    ]
}

/// One output column of a full round before its round key, from the four
/// input columns its rows come from (row `r` from the `r`-th argument).
#[inline(always)]
fn mix_column(a: u32, b: u32, c: u32, d: u32) -> u32 {
    TE0[(a >> 24) as usize]
        ^ TE1[usize::from((b >> 16) as u8)]
        ^ TE2[usize::from((c >> 8) as u8)]
        ^ TE3[usize::from(d as u8)]
}

/// [`mix_column`] for the last round: S-box and ShiftRows only.
#[inline(always)]
fn sub_column(a: u32, b: u32, c: u32, d: u32) -> u32 {
    u32::from_be_bytes([
        SBOX[(a >> 24) as usize],
        SBOX[usize::from((b >> 16) as u8)],
        SBOX[usize::from((c >> 8) as u8)],
        SBOX[usize::from(d as u8)],
    ])
}

/// The byte-oriented FIPS-197 cipher the T-table rounds replaced, kept as
/// the test oracle: its own key schedule, S-box lookups, and `xtime`-based
/// MixColumns over a column-major byte state.
#[cfg(test)]
pub(crate) mod reference {
    use super::{xtime, BLOCK_LEN, RCON, SBOX};

    /// An expanded key of the reference cipher.
    pub(crate) struct RefAes {
        round_keys: Vec<[u8; 16]>,
        rounds: usize,
    }

    impl RefAes {
        /// Expands a 16- or 32-byte key.
        pub(crate) fn new(key: &[u8]) -> Self {
            let nk = key.len() / 4;
            let rounds = nk + 6;
            let total_words = 4 * (rounds + 1);
            let mut w: Vec<[u8; 4]> = Vec::with_capacity(total_words);
            for i in 0..nk {
                w.push([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
            }
            for i in nk..total_words {
                let mut temp = w[i - 1];
                if i % nk == 0 {
                    temp.rotate_left(1);
                    for b in &mut temp {
                        *b = SBOX[*b as usize];
                    }
                    temp[0] ^= RCON[i / nk - 1];
                } else if nk > 6 && i % nk == 4 {
                    for b in &mut temp {
                        *b = SBOX[*b as usize];
                    }
                }
                let prev = w[i - nk];
                w.push([
                    prev[0] ^ temp[0],
                    prev[1] ^ temp[1],
                    prev[2] ^ temp[2],
                    prev[3] ^ temp[3],
                ]);
            }
            let round_keys = w
                .chunks_exact(4)
                .map(|c| {
                    let mut rk = [0u8; 16];
                    for (i, word) in c.iter().enumerate() {
                        rk[4 * i..4 * i + 4].copy_from_slice(word);
                    }
                    rk
                })
                .collect();
            RefAes { round_keys, rounds }
        }

        /// Encrypts one 16-byte block in place.
        pub(crate) fn encrypt_block(&self, block: &mut [u8; BLOCK_LEN]) {
            add_round_key(block, &self.round_keys[0]);
            for round in 1..self.rounds {
                sub_bytes(block);
                shift_rows(block);
                mix_columns(block);
                add_round_key(block, &self.round_keys[round]);
            }
            sub_bytes(block);
            shift_rows(block);
            add_round_key(block, &self.round_keys[self.rounds]);
        }
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for i in 0..16 {
            state[i] ^= rk[i];
        }
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    /// State is column-major: byte `state[4*c + r]` is row r, column c.
    fn shift_rows(state: &mut [u8; 16]) {
        // Row 1: shift left by 1.
        let t = state[1];
        state[1] = state[5];
        state[5] = state[9];
        state[9] = state[13];
        state[13] = t;
        // Row 2: shift left by 2.
        state.swap(2, 10);
        state.swap(6, 14);
        // Row 3: shift left by 3 (= right by 1).
        let t = state[15];
        state[15] = state[11];
        state[11] = state[7];
        state[7] = state[3];
        state[3] = t;
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            let t = col[0] ^ col[1] ^ col[2] ^ col[3];
            state[4 * c] = col[0] ^ t ^ xtime(col[0] ^ col[1]);
            state[4 * c + 1] = col[1] ^ t ^ xtime(col[1] ^ col[2]);
            state[4 * c + 2] = col[2] ^ t ^ xtime(col[2] ^ col[3]);
            state[4 * c + 3] = col[3] ^ t ^ xtime(col[3] ^ col[0]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::RefAes;
    use super::*;

    fn parse_hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // FIPS-197 Appendix C.1.
    #[test]
    fn fips197_aes128() {
        let key: [u8; 16] = parse_hex("000102030405060708090a0b0c0d0e0f")
            .try_into()
            .unwrap();
        let mut block: [u8; 16] = parse_hex("00112233445566778899aabbccddeeff")
            .try_into()
            .unwrap();
        let aes = Aes::new_128(&key);
        aes.encrypt_block(&mut block);
        assert_eq!(
            block.to_vec(),
            parse_hex("69c4e0d86a7b0430d8cdb78070b4c55a")
        );
    }

    // FIPS-197 Appendix C.3.
    #[test]
    fn fips197_aes256() {
        let key: [u8; 32] =
            parse_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
                .try_into()
                .unwrap();
        let mut block: [u8; 16] = parse_hex("00112233445566778899aabbccddeeff")
            .try_into()
            .unwrap();
        let aes = Aes::new_256(&key);
        aes.encrypt_block(&mut block);
        assert_eq!(
            block.to_vec(),
            parse_hex("8ea2b7ca516745bfeafc49904b496089")
        );
    }

    // SP 800-38A F.1.1 (ECB-AES128) first block.
    #[test]
    fn sp800_38a_ecb128_block1() {
        let key: [u8; 16] = parse_hex("2b7e151628aed2a6abf7158809cf4f3c")
            .try_into()
            .unwrap();
        let mut block: [u8; 16] = parse_hex("6bc1bee22e409f96e93d7e117393172a")
            .try_into()
            .unwrap();
        Aes::new_128(&key).encrypt_block(&mut block);
        assert_eq!(
            block.to_vec(),
            parse_hex("3ad77bb40d7a3660a89ecaf32466ef97")
        );
    }

    /// The oracle itself must meet the standard: FIPS-197 C.1 and C.3.
    #[test]
    fn reference_meets_fips197() {
        let plain = parse_hex("00112233445566778899aabbccddeeff");
        for (key, expected) in [
            (
                "000102030405060708090a0b0c0d0e0f",
                "69c4e0d86a7b0430d8cdb78070b4c55a",
            ),
            (
                "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
                "8ea2b7ca516745bfeafc49904b496089",
            ),
        ] {
            let mut block: [u8; 16] = plain.clone().try_into().unwrap();
            RefAes::new(&parse_hex(key)).encrypt_block(&mut block);
            assert_eq!(block.to_vec(), parse_hex(expected));
        }
    }

    /// Seeded property: the T-table cipher equals the byte-oriented
    /// reference for random AES-128 and AES-256 keys and blocks, one block
    /// at a time and four side by side.
    #[test]
    fn ttable_matches_reference_on_random_keys_and_blocks() {
        let mut x = 0x0123_4567_89ab_cdefu64;
        let mut next = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 56) as u8
        };
        for _ in 0..1000 {
            let key128: [u8; 16] = std::array::from_fn(|_| next());
            let key256: [u8; 32] = std::array::from_fn(|_| next());
            let blocks: [[u8; 16]; 4] = std::array::from_fn(|_| std::array::from_fn(|_| next()));
            for (aes, reference) in [
                (Aes::new_128(&key128), RefAes::new(&key128)),
                (Aes::new_256(&key256), RefAes::new(&key256)),
            ] {
                let mut expected = blocks;
                for block in &mut expected {
                    reference.encrypt_block(block);
                }
                let mut single = blocks[0];
                aes.encrypt_block(&mut single);
                assert_eq!(single, expected[0]);
                let mut wide = blocks;
                aes.encrypt_blocks(&mut wide);
                assert_eq!(wide, expected);
            }
        }
    }

    #[test]
    fn rounds_reported() {
        assert_eq!(Aes::new_128(&[0; 16]).rounds(), 10);
        assert_eq!(Aes::new_256(&[0; 32]).rounds(), 14);
    }

    #[test]
    fn debug_hides_key_material() {
        let s = format!("{:?}", Aes::new_128(&[0x42; 16]));
        assert!(!s.contains("42"), "debug output leaked key bytes: {s}");
    }
}
