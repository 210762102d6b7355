//! CTR-mode stream encryption over AES (NIST SP 800-38A §6.5).
//!
//! CTR is the symmetric mode used by the MLE schemes in `freqdedup-mle`:
//! it is length-preserving, so a ciphertext chunk has exactly the size of its
//! plaintext chunk, matching the paper's advanced attack assumption that both
//! sides classify by `ceil(size / 16)` AES blocks (§4.3).
//!
//! The counter block is the big-endian 128-bit value of the nonce,
//! incremented by one per block (standard incrementing function over the full
//! block, as in SP 800-38A appendix B.1).

use crate::aes::{Aes, BLOCK_LEN};

/// Counter blocks encrypted side by side per step of
/// [`Ctr::apply_keystream`].
const WIDE: usize = 4;

/// A CTR-mode keystream generator/applier over an expanded AES key.
#[derive(Clone, Debug)]
pub struct Ctr {
    aes: Aes,
    counter: [u8; BLOCK_LEN],
    /// Buffered keystream for partial-block progress.
    keystream: [u8; BLOCK_LEN],
    /// Offset of the next unused keystream byte; `BLOCK_LEN` means empty.
    ks_used: usize,
}

impl Ctr {
    /// Creates a CTR stream from an expanded AES key and a 16-byte initial
    /// counter block (nonce).
    #[must_use]
    pub fn from_aes(aes: Aes, iv: &[u8; BLOCK_LEN]) -> Self {
        Ctr {
            aes,
            counter: *iv,
            keystream: [0u8; BLOCK_LEN],
            ks_used: BLOCK_LEN,
        }
    }

    /// XORs the keystream into `data` in place. Calling this twice with the
    /// same key/IV restores the original data.
    ///
    /// Keystream left over from an earlier partial block is used first;
    /// then groups of four counter blocks are encrypted side by side and
    /// XORed in whole; a shorter tail goes through the one-block buffer.
    pub fn apply_keystream(&mut self, data: &mut [u8]) {
        let buffered = (BLOCK_LEN - self.ks_used).min(data.len());
        let (head, rest) = data.split_at_mut(buffered);
        xor(head, &self.keystream[self.ks_used..]);
        self.ks_used += buffered;

        let mut groups = rest.chunks_exact_mut(WIDE * BLOCK_LEN);
        for group in &mut groups {
            let mut keystream = [[0u8; BLOCK_LEN]; WIDE];
            for block in &mut keystream {
                *block = self.counter;
                increment_be(&mut self.counter);
            }
            self.aes.encrypt_blocks(&mut keystream);
            xor(group, keystream.as_flattened());
        }

        for byte in groups.into_remainder() {
            if self.ks_used == BLOCK_LEN {
                self.refill();
            }
            *byte ^= self.keystream[self.ks_used];
            self.ks_used += 1;
        }
    }

    fn refill(&mut self) {
        self.keystream = self.counter;
        self.aes.encrypt_block(&mut self.keystream);
        increment_be(&mut self.counter);
        self.ks_used = 0;
    }
}

/// XORs `keystream` into `data`, over the shorter of the two.
fn xor(data: &mut [u8], keystream: &[u8]) {
    for (d, k) in data.iter_mut().zip(keystream) {
        *d ^= k;
    }
}

/// Increments a big-endian 128-bit counter by one (wrapping).
fn increment_be(counter: &mut [u8; BLOCK_LEN]) {
    for byte in counter.iter_mut().rev() {
        let (v, carry) = byte.overflowing_add(1);
        *byte = v;
        if !carry {
            break;
        }
    }
}

/// AES-128 in CTR mode.
///
/// # Example
///
/// ```
/// use freqdedup_crypto::ctr::Aes128Ctr;
///
/// let mut buf = b"some plaintext".to_vec();
/// Aes128Ctr::new(&[1u8; 16], &[0u8; 16]).apply_keystream(&mut buf);
/// Aes128Ctr::new(&[1u8; 16], &[0u8; 16]).apply_keystream(&mut buf);
/// assert_eq!(buf, b"some plaintext");
/// ```
#[derive(Clone, Debug)]
pub struct Aes128Ctr(Ctr);

impl Aes128Ctr {
    /// Creates the stream from a raw 16-byte key and 16-byte IV.
    #[must_use]
    pub fn new(key: &[u8; 16], iv: &[u8; BLOCK_LEN]) -> Self {
        Aes128Ctr(Ctr::from_aes(Aes::new_128(key), iv))
    }

    /// XORs the keystream into `data` in place.
    pub fn apply_keystream(&mut self, data: &mut [u8]) {
        self.0.apply_keystream(data);
    }
}

/// AES-256 in CTR mode. This is the cipher used by the MLE schemes (the
/// convergent key is a full SHA-256 digest).
#[derive(Clone, Debug)]
pub struct Aes256Ctr(Ctr);

impl Aes256Ctr {
    /// Creates the stream from a raw 32-byte key and 16-byte IV.
    #[must_use]
    pub fn new(key: &[u8; 32], iv: &[u8; BLOCK_LEN]) -> Self {
        Aes256Ctr(Ctr::from_aes(Aes::new_256(key), iv))
    }

    /// XORs the keystream into `data` in place.
    pub fn apply_keystream(&mut self, data: &mut [u8]) {
        self.0.apply_keystream(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::reference::RefAes;

    fn parse_hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // NIST SP 800-38A F.5.1 CTR-AES128.Encrypt.
    #[test]
    fn sp800_38a_ctr_aes128() {
        let key: [u8; 16] = parse_hex("2b7e151628aed2a6abf7158809cf4f3c")
            .try_into()
            .unwrap();
        let iv: [u8; 16] = parse_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
            .try_into()
            .unwrap();
        let mut data = parse_hex(concat!(
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "f69f2445df4f9b17ad2b417be66c3710"
        ));
        Aes128Ctr::new(&key, &iv).apply_keystream(&mut data);
        assert_eq!(
            data,
            parse_hex(concat!(
                "874d6191b620e3261bef6864990db6ce",
                "9806f66b7970fdff8617187bb9fffdff",
                "5ae4df3edbd5d35e5b4f09020db03eab",
                "1e031dda2fbe03d1792170a0f3009cee"
            ))
        );
    }

    // NIST SP 800-38A F.5.5 CTR-AES256.Encrypt.
    #[test]
    fn sp800_38a_ctr_aes256() {
        let key: [u8; 32] =
            parse_hex("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4")
                .try_into()
                .unwrap();
        let iv: [u8; 16] = parse_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
            .try_into()
            .unwrap();
        let mut data = parse_hex(concat!(
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "f69f2445df4f9b17ad2b417be66c3710"
        ));
        Aes256Ctr::new(&key, &iv).apply_keystream(&mut data);
        assert_eq!(
            data,
            parse_hex(concat!(
                "601ec313775789a5b7a7f504bbf3d228",
                "f443e3ca4d62b59aca84e990cacaf5c5",
                "2b0930daa23de94ce87017ba2d84988d",
                "dfc9c58db67aada613c2dd08457941a6"
            ))
        );
    }

    #[test]
    fn partial_block_progress_matches_whole() {
        let key = [3u8; 32];
        let iv = [5u8; 16];
        let data: Vec<u8> = (0..100u8).collect();

        let mut whole = data.clone();
        Aes256Ctr::new(&key, &iv).apply_keystream(&mut whole);

        let mut pieces = data.clone();
        let mut ctr = Aes256Ctr::new(&key, &iv);
        for chunk in pieces.chunks_mut(7) {
            ctr.apply_keystream(chunk);
        }
        assert_eq!(pieces, whole);
    }

    #[test]
    fn roundtrip_is_identity() {
        let key = [0xabu8; 16];
        let iv = [0x11u8; 16];
        let original: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let mut buf = original.clone();
        Aes128Ctr::new(&key, &iv).apply_keystream(&mut buf);
        assert_ne!(buf, original);
        Aes128Ctr::new(&key, &iv).apply_keystream(&mut buf);
        assert_eq!(buf, original);
    }

    #[test]
    fn deterministic_for_same_key_iv() {
        let mut a = b"payload".to_vec();
        let mut b = b"payload".to_vec();
        Aes256Ctr::new(&[1; 32], &[2; 16]).apply_keystream(&mut a);
        Aes256Ctr::new(&[1; 32], &[2; 16]).apply_keystream(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn different_iv_different_stream() {
        let mut a = b"payload".to_vec();
        let mut b = b"payload".to_vec();
        Aes256Ctr::new(&[1; 32], &[2; 16]).apply_keystream(&mut a);
        Aes256Ctr::new(&[1; 32], &[3; 16]).apply_keystream(&mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn counter_increment_carries() {
        let mut c = [0xffu8; 16];
        increment_be(&mut c);
        assert_eq!(c, [0u8; 16]);

        let mut c = [0u8; 16];
        c[15] = 0xff;
        increment_be(&mut c);
        assert_eq!(c[15], 0);
        assert_eq!(c[14], 1);
    }

    /// CTR built on the byte-oriented reference block cipher, one block
    /// at a time.
    fn reference_ctr(key: &[u8], iv: &[u8; BLOCK_LEN], data: &mut [u8]) {
        let aes = RefAes::new(key);
        let mut counter = *iv;
        for chunk in data.chunks_mut(BLOCK_LEN) {
            let mut keystream = counter;
            aes.encrypt_block(&mut keystream);
            increment_be(&mut counter);
            xor(chunk, &keystream);
        }
    }

    /// Every length 0..=130, fed whole and in two pieces split at every
    /// offset, equals the reference CTR — for both key sizes, from an IV
    /// whose low bytes carry within the first few blocks.
    #[test]
    fn matches_reference_at_every_length_and_split() {
        let mut iv = [0x5au8; BLOCK_LEN];
        iv[13..].copy_from_slice(&[0xff, 0xff, 0xfd]);
        let key128 = [0x11u8; 16];
        let key256: [u8; 32] = std::array::from_fn(|i| i as u8 * 7);
        for len in 0..=130usize {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 + len) as u8).collect();
            let mut expected128 = data.clone();
            reference_ctr(&key128, &iv, &mut expected128);
            let mut expected256 = data.clone();
            reference_ctr(&key256, &iv, &mut expected256);
            for split in 0..=len {
                let mut got128 = data.clone();
                let mut ctr = Aes128Ctr::new(&key128, &iv);
                let (a, b) = got128.split_at_mut(split);
                ctr.apply_keystream(a);
                ctr.apply_keystream(b);
                assert_eq!(got128, expected128, "AES-128 len {len} split {split}");

                let mut got256 = data.clone();
                let mut ctr = Aes256Ctr::new(&key256, &iv);
                let (a, b) = got256.split_at_mut(split);
                ctr.apply_keystream(a);
                ctr.apply_keystream(b);
                assert_eq!(got256, expected256, "AES-256 len {len} split {split}");
            }
        }
    }

    #[test]
    fn length_preserving() {
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 100] {
            let mut buf = vec![0u8; len];
            Aes128Ctr::new(&[0; 16], &[0; 16]).apply_keystream(&mut buf);
            assert_eq!(buf.len(), len);
        }
    }
}
