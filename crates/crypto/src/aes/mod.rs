//! The AES-128 block cipher (FIPS 197).
//!
//! Three implementations share this module:
//!
//! * **Hardware AES** (`ni`, AES-NI on x86-64) — when the CPU
//!   advertises the `aes` feature (detected once at key expansion,
//!   cached in the backend choice), [`Aes128`] dispatches to
//!   `AESENC`/`AESDEC` instructions, one block per call.
//! * **Constant-time bitsliced software** ([`ct`]) — the tier for hosts
//!   without hardware AES. A block's state is transposed into eight
//!   64-bit bit-planes and every round is computed with boolean algebra
//!   only: no key- or data-indexed table load anywhere, so the classic
//!   AES cache-timing side channel does not exist by construction.
//! * `baseline::Aes128` — the compact byte-oriented implementation
//!   (`SubBytes`/`ShiftRows`/`MixColumns` a byte at a time), kept as the
//!   reference the fast paths are tested against. It is compiled into
//!   test builds only.
//!
//! The first two are the wire tiers; exactly one of them serves a given
//! host. OCB seals and opens one packet at a time, so it asks the cipher
//! for one block per call. It needs both directions (full ciphertext
//! blocks are decrypted with the inverse cipher), so every implementation
//! provides the inverse cipher as well.
//!
//! **Timing side channels.** The hardware path is constant-time by
//! construction; the bitsliced path is constant-time because its only
//! data-dependent values flow through word-wide boolean operations
//! (including key expansion, whose `SubWord` runs the same bitsliced
//! S-box circuit). The `baseline` reference still uses a 256-byte
//! S-box lookup, so it and the table exist only in test builds.
//!
//! What sealing and opening cost per datagram and per byte on the
//! selected backend is reported by the benchmark (`benchmark/`) as
//! `crypto.{seal,open}_ns_per_{byte,dgram}`.

#[cfg(test)]
pub(crate) mod baseline;
pub mod ct;
#[cfg(target_arch = "x86_64")]
mod ni;

/// A 128-bit cipher block.
pub type Block = [u8; 16];

/// Number of AES-128 round keys (initial AddRoundKey + 10 rounds).
const ROUND_KEYS: usize = 11;

/// The AES S-box: the `baseline` reference's table and the tests'
/// reference for the bitsliced S-box circuit.
#[cfg(test)]
#[rustfmt::skip]
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

/// The inverse AES S-box, `const`-derived from [`SBOX`].
#[cfg(test)]
const INV_SBOX: [u8; 256] = {
    let mut inv = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        inv[SBOX[i] as usize] = i as u8;
        i += 1;
    }
    inv
};

/// Multiply by `x` in GF(2^8) with the AES reduction polynomial.
/// Branch-free: the conditional reduction is a mask multiply.
#[inline]
const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// GF(2^8) multiplication. Constant-time in `a` when `b` is a public
/// constant (the loop's branch pattern depends only on `b`), which is
/// how the key schedule's `InvMixColumns` and the baseline use it.
#[inline]
const fn gmul(a: u8, b: u8) -> u8 {
    let mut a = a;
    let mut b = b;
    let mut p = 0u8;
    let mut i = 0;
    while i < 8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
        i += 1;
    }
    p
}

/// A 128-bit block cipher, both directions.
///
/// The seam exists so the OCB layer can run over the dispatched
/// [`Aes128`] (the product), the [`ct::Aes128`] bitsliced tier, or the
/// test-only byte-oriented reference — which is how the tests pin the
/// implementations to each other.
pub trait BlockCipher: Clone {
    /// Expands a 128-bit key.
    fn new(key: &[u8; 16]) -> Self;
    /// Encrypts one 16-byte block.
    fn encrypt_block(&self, block: &Block) -> Block;
    /// Decrypts one 16-byte block (the inverse cipher).
    fn decrypt_block(&self, block: &Block) -> Block;
}

/// `InvMixColumns` of one big-endian round-key word, via GF(2^8)
/// multiplies by the (public) inverse matrix constants — constant-time,
/// used only at key expansion.
#[inline]
fn inv_mix_word(w: u32) -> u32 {
    let a = w.to_be_bytes();
    u32::from_be_bytes([
        gmul(a[0], 0x0e) ^ gmul(a[1], 0x0b) ^ gmul(a[2], 0x0d) ^ gmul(a[3], 0x09),
        gmul(a[0], 0x09) ^ gmul(a[1], 0x0e) ^ gmul(a[2], 0x0b) ^ gmul(a[3], 0x0d),
        gmul(a[0], 0x0d) ^ gmul(a[1], 0x09) ^ gmul(a[2], 0x0e) ^ gmul(a[3], 0x0b),
        gmul(a[0], 0x0b) ^ gmul(a[1], 0x0d) ^ gmul(a[2], 0x09) ^ gmul(a[3], 0x0e),
    ])
}

/// Expands a 128-bit key into both schedules as 16-byte round-key rows:
/// the encryption schedule, and the *equivalent inverse cipher* schedule
/// (reversed round order, `InvMixColumns` on the nine inner rounds) that
/// both `AESDEC` and the bitsliced inverse rounds consume. `SubWord`
/// runs the bitsliced S-box circuit, so expansion itself is free of
/// key-indexed table loads.
pub(crate) fn expand_key(key: &[u8; 16]) -> ([[u8; 16]; ROUND_KEYS], [[u8; 16]; ROUND_KEYS]) {
    let mut ek = [0u32; 4 * ROUND_KEYS];
    for (i, w) in ek.iter_mut().take(4).enumerate() {
        *w = u32::from_be_bytes([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
    }
    let mut rcon = 1u8;
    for i in 4..4 * ROUND_KEYS {
        let mut temp = ek[i - 1];
        if i % 4 == 0 {
            temp = ct::sub_word(temp.rotate_left(8)) ^ (u32::from(rcon) << 24);
            rcon = xtime(rcon);
        }
        ek[i] = ek[i - 4] ^ temp;
    }

    let mut dk = [0u32; 4 * ROUND_KEYS];
    for r in 0..ROUND_KEYS {
        let src = 4 * (ROUND_KEYS - 1 - r);
        for j in 0..4 {
            dk[4 * r + j] = if r == 0 || r == ROUND_KEYS - 1 {
                ek[src + j]
            } else {
                inv_mix_word(ek[src + j])
            };
        }
    }

    let rows = |words: &[u32; 4 * ROUND_KEYS]| {
        let mut rows = [[0u8; 16]; ROUND_KEYS];
        for (r, row) in rows.iter_mut().enumerate() {
            for j in 0..4 {
                row[4 * j..4 * j + 4].copy_from_slice(&words[4 * r + j].to_be_bytes());
            }
        }
        rows
    };
    (rows(&ek), rows(&dk))
}

/// Which implementation an [`Aes128`] key dispatches to — decided once
/// at key expansion, so block calls never re-detect CPU features.
// Every session pays for a `Backend`. The `Ni` schedules (352 B), read
// on every block call, stay inline; the bitsliced ones (1 408 B) are
// boxed, a pointer chase that is noise next to a bitsliced block.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
enum Backend {
    /// AES-NI: round-key rows in the natural byte order the
    /// `AESENC`/`AESDEC` instructions consume.
    #[cfg(target_arch = "x86_64")]
    Ni {
        ek: [[u8; 16]; ROUND_KEYS],
        dk: [[u8; 16]; ROUND_KEYS],
    },
    /// The constant-time bitsliced software tier.
    Ct(Box<ct::Aes128>),
}

/// An expanded AES-128 key, ready to encrypt and decrypt blocks.
///
/// # Examples
///
/// ```
/// use mosh_crypto::aes::Aes128;
///
/// let key = Aes128::new(&[0u8; 16]);
/// let block = [0u8; 16];
/// let ct = key.encrypt_block(&block);
/// assert_eq!(key.decrypt_block(&ct), block);
/// ```
#[derive(Clone)]
pub struct Aes128 {
    backend: Backend,
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.write_str("Aes128 { .. }")
    }
}

impl Aes128 {
    /// Expands a 128-bit key and picks the backend (hardware AES when
    /// the CPU has it, the constant-time bitsliced tier otherwise).
    pub fn new(key: &[u8; 16]) -> Self {
        let (ek, dk) = expand_key(key);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("aes") {
            return Aes128 {
                backend: Backend::Ni { ek, dk },
            };
        }
        Aes128 {
            backend: Backend::Ct(Box::new(ct::Aes128::from_schedule(&ek, &dk))),
        }
    }

    /// Expands a key onto the bitsliced backend whatever the CPU has, so
    /// the tests run that arm of the dispatch on AES-NI hosts too.
    #[cfg(test)]
    pub(crate) fn software(key: &[u8; 16]) -> Self {
        Aes128 {
            backend: Backend::Ct(Box::new(ct::Aes128::new(key))),
        }
    }

    /// True when block calls dispatch to hardware AES (AES-NI) rather
    /// than the bitsliced software tier. Lets benches report which
    /// backend they measured and pick throughput expectations
    /// accordingly.
    pub fn hardware_accelerated(&self) -> bool {
        match &self.backend {
            #[cfg(target_arch = "x86_64")]
            Backend::Ni { .. } => true,
            Backend::Ct(_) => false,
        }
    }

    /// Encrypts one 16-byte block.
    pub fn encrypt_block(&self, block: &Block) -> Block {
        match &self.backend {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the `Ni` backend is only constructed after runtime
            // detection of the `aes` CPU feature in `Aes128::new`.
            Backend::Ni { ek, .. } => unsafe { ni::encrypt_block(ek, block) },
            Backend::Ct(ct) => ct.encrypt_block(block),
        }
    }

    /// Decrypts one 16-byte block (the inverse cipher).
    pub fn decrypt_block(&self, block: &Block) -> Block {
        match &self.backend {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the `Ni` backend is only constructed after runtime
            // detection of the `aes` CPU feature in `Aes128::new`.
            Backend::Ni { dk, .. } => unsafe { ni::decrypt_block(dk, block) },
            Backend::Ct(ct) => ct.decrypt_block(block),
        }
    }
}

impl BlockCipher for Aes128 {
    fn new(key: &[u8; 16]) -> Self {
        Aes128::new(key)
    }

    fn encrypt_block(&self, block: &Block) -> Block {
        Aes128::encrypt_block(self, block)
    }

    fn decrypt_block(&self, block: &Block) -> Block {
        Aes128::decrypt_block(self, block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn hex16(s: &str) -> [u8; 16] {
        hex(s).try_into().unwrap()
    }

    #[test]
    fn fips197_appendix_b_vector() {
        // FIPS 197 Appendix B: the fully worked AES-128 example.
        let key = hex16("2b7e151628aed2a6abf7158809cf4f3c");
        let pt = hex16("3243f6a8885a308d313198a2e0370734");
        let ct = Aes128::new(&key).encrypt_block(&pt);
        assert_eq!(ct, hex16("3925841d02dc09fbdc118597196a0b32"));
        let base = baseline::Aes128::new(&key).encrypt_block(&pt);
        assert_eq!(base, ct);
        let sliced = ct::Aes128::new(&key).encrypt_block(&pt);
        assert_eq!(sliced, ct);
        let boxed = Aes128::software(&key);
        assert!(!boxed.hardware_accelerated());
        assert_eq!(boxed.encrypt_block(&pt), ct);
    }

    #[test]
    fn fips197_appendix_c_vector() {
        // FIPS 197 Appendix C.1: AES-128 example vector.
        let key = hex16("000102030405060708090a0b0c0d0e0f");
        let pt = hex16("00112233445566778899aabbccddeeff");
        let aes = Aes128::new(&key);
        let ct_ = aes.encrypt_block(&pt);
        assert_eq!(ct_, hex16("69c4e0d86a7b0430d8cdb78070b4c55a"));
        assert_eq!(aes.decrypt_block(&ct_), pt);
        let base = baseline::Aes128::new(&key);
        assert_eq!(base.encrypt_block(&pt), ct_);
        assert_eq!(base.decrypt_block(&ct_), pt);
        let sliced = ct::Aes128::new(&key);
        assert_eq!(sliced.encrypt_block(&pt), ct_);
        assert_eq!(sliced.decrypt_block(&ct_), pt);
        let boxed = Aes128::software(&key);
        assert_eq!(boxed.encrypt_block(&pt), ct_);
        assert_eq!(boxed.decrypt_block(&ct_), pt);
    }

    #[test]
    fn nist_sp800_38a_ecb_vectors() {
        // NIST SP 800-38A F.1.1, ECB-AES128 (first two blocks).
        let aes = Aes128::new(&hex16("2b7e151628aed2a6abf7158809cf4f3c"));
        assert_eq!(
            aes.encrypt_block(&hex16("6bc1bee22e409f96e93d7e117393172a")),
            hex16("3ad77bb40d7a3660a89ecaf32466ef97")
        );
        assert_eq!(
            aes.encrypt_block(&hex16("ae2d8a571e03ac9c9eb76fac45af8e51")),
            hex16("f5d3d58503b9699de785895a96fdbaaf")
        );
    }

    #[test]
    fn decrypt_inverts_encrypt_for_many_blocks() {
        let aes = Aes128::new(&hex16("000102030405060708090a0b0c0d0e0f"));
        let mut block = [0u8; 16];
        for i in 0..256 {
            block[0] = i as u8;
            block[7] = (i * 31) as u8;
            let ct = aes.encrypt_block(&block);
            assert_eq!(aes.decrypt_block(&ct), block);
        }
    }

    #[test]
    fn ct_matches_baseline_over_many_keys_and_blocks() {
        // The bitsliced tier is the same permutation as the byte-oriented
        // reference, both directions, across a spread of keys and blocks.
        let mut key = [0u8; 16];
        let mut block = [0u8; 16];
        for k in 0..32u32 {
            for (i, b) in key.iter_mut().enumerate() {
                *b = (k as u8)
                    .wrapping_mul(37)
                    .wrapping_add((i as u8).wrapping_mul(13));
            }
            let fast = ct::Aes128::new(&key);
            let slow = baseline::Aes128::new(&key);
            for n in 0..32u32 {
                for (i, b) in block.iter_mut().enumerate() {
                    *b = (n as u8)
                        .wrapping_mul(101)
                        .wrapping_add((i as u8).wrapping_mul(29));
                }
                let ct_ = fast.encrypt_block(&block);
                assert_eq!(ct_, slow.encrypt_block(&block), "encrypt k={k} n={n}");
                assert_eq!(fast.decrypt_block(&ct_), block, "decrypt k={k} n={n}");
                assert_eq!(slow.decrypt_block(&ct_), block, "baseline decrypt");
            }
        }
    }

    #[test]
    fn ct_tier_matches_dispatched_path() {
        // On AES-NI machines the public methods dispatch to hardware;
        // this pins the bitsliced software tier against whatever backend
        // is live (and is close to a tautology where no hardware AES
        // exists, on purpose — the KATs above cover that path there).
        let mut key = [0u8; 16];
        for k in 0..16u8 {
            key[0] = k.wrapping_mul(17);
            key[9] = k;
            let aes = Aes128::new(&key);
            let sliced = ct::Aes128::new(&key);
            let mut block = [0u8; 16];
            for n in 0..16u8 {
                block[3] = n.wrapping_mul(43);
                block[12] = n ^ 0x5a;
                let ct_ = aes.encrypt_block(&block);
                assert_eq!(sliced.encrypt_block(&block), ct_, "encrypt k={k} n={n}");
                assert_eq!(sliced.decrypt_block(&ct_), block, "decrypt k={k} n={n}");
            }
        }
    }

    #[test]
    fn different_keys_give_different_ciphertexts() {
        let a = Aes128::new(&[0u8; 16]);
        let b = Aes128::new(&[1u8; 16]);
        let pt = [42u8; 16];
        assert_ne!(a.encrypt_block(&pt), b.encrypt_block(&pt));
    }

    #[test]
    fn xtime_matches_definition() {
        assert_eq!(xtime(0x57), 0xae);
        assert_eq!(xtime(0xae), 0x47);
        assert_eq!(gmul(0x57, 0x13), 0xfe);
    }

    #[test]
    fn inv_sbox_inverts_sbox() {
        for i in 0..=255u8 {
            assert_eq!(INV_SBOX[SBOX[i as usize] as usize], i);
        }
    }

    #[test]
    fn inv_mix_word_matches_baseline_matrix() {
        // Spot-check the key-schedule InvMixColumns against the known
        // TD-table first entry it used to be computed from:
        // InvMixColumns of the column [0x52,0,0,0] (Si[0x63] = 0x52).
        let w = inv_mix_word(u32::from_be_bytes([0x52, 0, 0, 0]));
        assert_eq!(
            w,
            u32::from_be_bytes([
                gmul(0x52, 0x0e),
                gmul(0x52, 0x09),
                gmul(0x52, 0x0d),
                gmul(0x52, 0x0b)
            ])
        );
        // And a full identity: applying the forward MixColumns matrix to
        // the result must give the input back.
        let input = u32::from_be_bytes([0x12, 0x34, 0x56, 0x78]);
        let a = inv_mix_word(input).to_be_bytes();
        let fwd = |a: [u8; 4], r: usize| {
            gmul(a[r], 0x02) ^ gmul(a[(r + 1) % 4], 0x03) ^ a[(r + 2) % 4] ^ a[(r + 3) % 4]
        };
        let round_trip = u32::from_be_bytes([fwd(a, 0), fwd(a, 1), fwd(a, 2), fwd(a, 3)]);
        assert_eq!(round_trip, input);
    }

    #[test]
    fn debug_does_not_leak_key() {
        let aes = Aes128::new(&[7u8; 16]);
        let s = format!("{aes:?}");
        assert!(!s.contains('7'));
        let base = baseline::Aes128::new(&[7u8; 16]);
        let s = format!("{base:?}");
        assert!(!s.contains('7'));
        let sliced = ct::Aes128::new(&[7u8; 16]);
        let s = format!("{sliced:?}");
        assert!(!s.contains('7'));
    }
}
