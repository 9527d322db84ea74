//! Constant-time bitsliced AES-128 — the software tier for hosts without
//! hardware AES.
//!
//! A table-driven AES trades away timing safety for speed: 4 KiB of
//! key/data-indexed table loads is the classic AES cache-timing side
//! channel. Here the state of up to four blocks is transposed into eight
//! 64-bit *bit-planes* (plane `p` holds bit `p` of every state byte of
//! every lane) and each round is computed with word-wide boolean algebra
//! only — XOR, AND, rotate by public constants. No data- or key-dependent memory access or branch exists
//! anywhere in the block path, including `SubBytes`, which evaluates the
//! S-box as a GF(2^8) inversion circuit (Fermat: `x^254`) plus the
//! affine map instead of a table lookup.
//!
//! Bit layout: within a plane, bit `r*16 + c*4 + lane` is state row `r`,
//! column `c` of block `lane` (FIPS 197 state byte `4*c + r`). Rows are
//! the four 16-bit fields of the word, so `ShiftRows` is four 16-bit
//! rotations and `MixColumns`' row-shifted reads are whole-word
//! rotations by multiples of 16 — both free of per-byte shuffles.
//!
//! The circuit's natural unit is a 4-block group, but OCB asks for one
//! block at a time, so each call runs a group with three idle lanes —
//! correct, constant-time, and 4x wasteful, which is the documented cost
//! of timing safety on hosts without hardware AES.

use super::{expand_key, Block, BlockCipher, ROUND_KEYS};

/// Blocks per bitsliced group.
const LANES: usize = 4;

/// Eight bit-planes holding up to four 16-byte states.
type Planes = [u64; 8];

/// An expanded AES-128 key for the bitsliced tier: both schedules
/// pre-sliced into plane form (each round key broadcast to all four
/// lanes), so `AddRoundKey` is eight XORs.
#[derive(Clone)]
pub struct Aes128 {
    ek: [Planes; ROUND_KEYS],
    dk: [Planes; ROUND_KEYS],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.write_str("ct::Aes128 { .. }")
    }
}

impl Aes128 {
    /// Builds the bitsliced key from already-expanded round-key rows
    /// (the encryption schedule and the equivalent-inverse-cipher
    /// decryption schedule, as produced by `aes::expand_key`).
    pub fn from_schedule(ek: &[[u8; 16]; ROUND_KEYS], dk: &[[u8; 16]; ROUND_KEYS]) -> Self {
        let slice_key = |rk: &[u8; 16]| {
            // Broadcast to every lane so one group XOR keys all blocks.
            let lanes = [*rk; LANES];
            slice(&lanes)
        };
        let mut out = Aes128 {
            ek: [[0u64; 8]; ROUND_KEYS],
            dk: [[0u64; 8]; ROUND_KEYS],
        };
        for r in 0..ROUND_KEYS {
            out.ek[r] = slice_key(&ek[r]);
            out.dk[r] = slice_key(&dk[r]);
        }
        out
    }

    /// Encrypts one block (a group with three idle lanes).
    pub fn encrypt_block(&self, block: &Block) -> Block {
        let mut one = [*block];
        self.encrypt_group(&mut one);
        one[0]
    }

    /// Decrypts one block (a group with three idle lanes).
    pub fn decrypt_block(&self, block: &Block) -> Block {
        let mut one = [*block];
        self.decrypt_group(&mut one);
        one[0]
    }

    /// One group (1–4 blocks) through the forward cipher.
    fn encrypt_group(&self, blocks: &mut [Block]) {
        let mut s = slice(blocks);
        xor_planes(&mut s, &self.ek[0]);
        for r in 1..10 {
            sub_bytes(&mut s);
            shift_rows(&mut s);
            mix_columns(&mut s);
            xor_planes(&mut s, &self.ek[r]);
        }
        sub_bytes(&mut s);
        shift_rows(&mut s);
        xor_planes(&mut s, &self.ek[10]);
        unslice(&s, blocks);
    }

    /// One group (1–4 blocks) through the equivalent inverse cipher
    /// (same round shape as forward, over the `InvMixColumns`-
    /// transformed reversed schedule — the structure `AESDEC` uses).
    fn decrypt_group(&self, blocks: &mut [Block]) {
        let mut s = slice(blocks);
        xor_planes(&mut s, &self.dk[0]);
        for r in 1..10 {
            inv_sub_bytes(&mut s);
            inv_shift_rows(&mut s);
            inv_mix_columns(&mut s);
            xor_planes(&mut s, &self.dk[r]);
        }
        inv_sub_bytes(&mut s);
        inv_shift_rows(&mut s);
        xor_planes(&mut s, &self.dk[10]);
        unslice(&s, blocks);
    }
}

impl BlockCipher for Aes128 {
    fn new(key: &[u8; 16]) -> Self {
        let (ek, dk) = expand_key(key);
        Aes128::from_schedule(&ek, &dk)
    }

    fn encrypt_block(&self, block: &Block) -> Block {
        Aes128::encrypt_block(self, block)
    }

    fn decrypt_block(&self, block: &Block) -> Block {
        Aes128::decrypt_block(self, block)
    }
}

/// `SubWord` for the key schedule: the four bytes of `w` run through the
/// bitsliced S-box circuit (one group, four idle-ish lanes), keeping key
/// expansion free of key-indexed table loads.
pub(super) fn sub_word(w: u32) -> u32 {
    let mut block = [0u8; 16];
    block[..4].copy_from_slice(&w.to_be_bytes());
    let mut planes = slice(std::slice::from_ref(&block));
    sub_bytes(&mut planes);
    unslice(&planes, std::slice::from_mut(&mut block));
    u32::from_be_bytes([block[0], block[1], block[2], block[3]])
}

// ---------------------------------------------------------------------
// Slicing
// ---------------------------------------------------------------------

/// 8x8 bit-matrix transpose of a u64 (rows are the little-endian bytes):
/// bit `j` of output byte `p` = bit `p` of input byte `j`. An involution.
#[inline]
fn transpose8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00aa_00aa_00aa_00aa;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_cccc_0000_cccc;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_f0f0_f0f0;
    x ^= t ^ (t << 28);
    x
}

/// Transposes up to four blocks into bit-plane form. Missing lanes are
/// zero (and never read back by [`unslice`]).
fn slice(blocks: &[Block]) -> Planes {
    debug_assert!(blocks.len() <= LANES);
    // Gather into bit-index order: position r*16 + c*4 + lane holds
    // state byte 4*c + r of block `lane`.
    let mut buf = [0u8; 64];
    for (lane, block) in blocks.iter().enumerate() {
        for (s, &byte) in block.iter().enumerate() {
            buf[(s % 4) * 16 + (s / 4) * 4 + lane] = byte;
        }
    }
    // Each group of 8 positions transposes so byte p collects bit p of
    // all 8 positions; byte p of group g lands at bits [8g, 8g+8) of
    // plane p.
    let mut planes = [0u64; 8];
    for g in 0..8 {
        let mut w = [0u8; 8];
        w.copy_from_slice(&buf[8 * g..8 * g + 8]);
        let t = transpose8(u64::from_le_bytes(w)).to_le_bytes();
        for (p, plane) in planes.iter_mut().enumerate() {
            *plane |= u64::from(t[p]) << (8 * g);
        }
    }
    planes
}

/// Inverse of [`slice`]: writes the first `blocks.len()` lanes back.
fn unslice(planes: &Planes, blocks: &mut [Block]) {
    debug_assert!(blocks.len() <= LANES);
    let mut buf = [0u8; 64];
    for g in 0..8 {
        let mut t = [0u8; 8];
        for (p, plane) in planes.iter().enumerate() {
            t[p] = (plane >> (8 * g)) as u8;
        }
        let w = transpose8(u64::from_le_bytes(t)).to_le_bytes();
        buf[8 * g..8 * g + 8].copy_from_slice(&w);
    }
    for (lane, block) in blocks.iter_mut().enumerate() {
        for (s, byte) in block.iter_mut().enumerate() {
            *byte = buf[(s % 4) * 16 + (s / 4) * 4 + lane];
        }
    }
}

#[inline]
fn xor_planes(a: &mut Planes, b: &Planes) {
    for (x, y) in a.iter_mut().zip(b.iter()) {
        *x ^= y;
    }
}

// ---------------------------------------------------------------------
// Linear layers
// ---------------------------------------------------------------------

/// Applies `f` to each of the four 16-bit row fields of a plane.
#[inline]
fn map_rows(x: u64, f: impl Fn(u16, u32) -> u16) -> u64 {
    let mut out = 0u64;
    for r in 0..4 {
        let field = (x >> (16 * r)) as u16;
        out |= u64::from(f(field, r as u32)) << (16 * r);
    }
    out
}

/// `ShiftRows`: row `r` rotates left by `r` columns, which in the
/// `c*4 + lane` bit order of a row field is a rotate-right by `4r`.
#[inline]
fn shift_rows(planes: &mut Planes) {
    for p in planes.iter_mut() {
        *p = map_rows(*p, |field, r| field.rotate_right(4 * r));
    }
}

/// `InvShiftRows`: the opposite rotation.
#[inline]
fn inv_shift_rows(planes: &mut Planes) {
    for p in planes.iter_mut() {
        *p = map_rows(*p, |field, r| field.rotate_left(4 * r));
    }
}

/// Rotates a plane so row `r` reads row `r + n` (mod 4): whole-word
/// rotate by `16n` bits.
#[inline]
fn rot_rows(x: u64, n: u32) -> u64 {
    x.rotate_right(16 * n)
}

/// Multiply every byte by `x` (GF(2^8), poly 0x11b) in plane form: shift
/// the planes up one and fold bit 7 back into the 0x1b taps.
#[inline]
fn xtime_planes(a: &Planes) -> Planes {
    [
        a[7],
        a[0] ^ a[7],
        a[1],
        a[2] ^ a[7],
        a[3] ^ a[7],
        a[4],
        a[5],
        a[6],
    ]
}

/// `MixColumns` over all lanes at once, via the xtime identity the
/// baseline uses byte-wise: `out_r = a_r ^ tot ^ xtime(a_r ^ a_{r+1})`
/// with `tot` the XOR of the column.
fn mix_columns(a: &mut Planes) {
    let mut tot = [0u64; 8];
    let mut u = [0u64; 8];
    for p in 0..8 {
        tot[p] = a[p] ^ rot_rows(a[p], 1) ^ rot_rows(a[p], 2) ^ rot_rows(a[p], 3);
        u[p] = a[p] ^ rot_rows(a[p], 1);
    }
    let xu = xtime_planes(&u);
    for p in 0..8 {
        a[p] ^= tot[p] ^ xu[p];
    }
}

/// `InvMixColumns`, decomposed over powers of two:
/// `0e = 8+4+2`, `0b = 8+2+1`, `0d = 8+4+1`, `09 = 8+1`, giving
/// `out_r = 8·tot ^ 4·(a_r ^ a_{r+2}) ^ 2·(a_r ^ a_{r+1})
///          ^ (a_{r+1} ^ a_{r+2} ^ a_{r+3})`.
fn inv_mix_columns(a: &mut Planes) {
    let b2 = xtime_planes(a);
    let b4 = xtime_planes(&b2);
    let b8 = xtime_planes(&b4);
    let mut out = [0u64; 8];
    for p in 0..8 {
        out[p] = b8[p] ^ rot_rows(b8[p], 1) ^ rot_rows(b8[p], 2) ^ rot_rows(b8[p], 3);
        out[p] ^= b4[p] ^ rot_rows(b4[p], 2);
        out[p] ^= b2[p] ^ rot_rows(b2[p], 1);
        out[p] ^= rot_rows(a[p], 1) ^ rot_rows(a[p], 2) ^ rot_rows(a[p], 3);
    }
    *a = out;
}

// ---------------------------------------------------------------------
// The S-box circuit
// ---------------------------------------------------------------------

/// Squaring in GF(2^8) is linear over GF(2): each output plane is a
/// fixed XOR of input planes (from `x^{2i} mod 0x11b`).
#[inline]
fn gf_sq(a: &Planes) -> Planes {
    [
        a[0] ^ a[4] ^ a[6],
        a[4] ^ a[6] ^ a[7],
        a[1] ^ a[5],
        a[4] ^ a[5] ^ a[6] ^ a[7],
        a[2] ^ a[4] ^ a[7],
        a[5] ^ a[6],
        a[3] ^ a[5],
        a[6] ^ a[7],
    ]
}

/// Lane-wise GF(2^8) multiply: schoolbook over the bits of `a`, with
/// `b`'s running `xtime` powers — 64 AND/XOR pairs, no data-dependent
/// control flow.
fn gf_mul(a: &Planes, b: &Planes) -> Planes {
    let mut acc = [0u64; 8];
    let mut t = *b;
    for (i, &ai) in a.iter().enumerate() {
        for p in 0..8 {
            acc[p] ^= ai & t[p];
        }
        if i < 7 {
            t = xtime_planes(&t);
        }
    }
    acc
}

/// GF(2^8) inversion by Fermat: `x^254` (0 maps to 0, as AES requires).
/// Addition chain: 4 multiplies, 7 squarings.
fn gf_inv(a: &Planes) -> Planes {
    let x2 = gf_sq(a); // a^2
    let x3 = gf_mul(&x2, a); // a^3
    let x12 = gf_sq(&gf_sq(&x3)); // a^12
    let x15 = gf_mul(&x12, &x3); // a^15
    let x240 = gf_sq(&gf_sq(&gf_sq(&gf_sq(&x15)))); // a^240
    let x252 = gf_mul(&x240, &x12); // a^252
    gf_mul(&x252, &x2) // a^254
}

/// The S-box: GF inversion then the affine map
/// `s_i = y_i ^ y_{i+4} ^ y_{i+5} ^ y_{i+6} ^ y_{i+7} ^ c_i`
/// (indices mod 8, c = 0x63). Complementing a plane is XOR with all
/// ones; padding lanes get scrambled, but they are never read back.
fn sub_bytes(a: &mut Planes) {
    let y = gf_inv(a);
    for i in 0..8 {
        a[i] = y[i] ^ y[(i + 4) % 8] ^ y[(i + 5) % 8] ^ y[(i + 6) % 8] ^ y[(i + 7) % 8];
    }
    a[0] ^= !0;
    a[1] ^= !0;
    a[5] ^= !0;
    a[6] ^= !0;
}

/// The inverse S-box: the inverse affine map
/// `y_i = s_{i+2} ^ s_{i+5} ^ s_{i+7} ^ d_i` (d = 0x05), then GF
/// inversion (inversion is an involution, so it is its own inverse).
fn inv_sub_bytes(a: &mut Planes) {
    let mut t = [0u64; 8];
    for (i, out) in t.iter_mut().enumerate() {
        *out = a[(i + 2) % 8] ^ a[(i + 5) % 8] ^ a[(i + 7) % 8];
    }
    t[0] ^= !0;
    t[2] ^= !0;
    *a = gf_inv(&t);
}

#[cfg(test)]
mod tests {
    use super::super::{gmul, INV_SBOX, SBOX};
    use super::*;

    /// Runs a plane-level circuit over all 256 byte values at once
    /// (64 groups of 4 lanes) and returns the per-byte results.
    fn bytewise(circuit: impl Fn(&mut Planes)) -> [u8; 256] {
        let mut out = [0u8; 256];
        for chunk in 0..16 {
            // 16 bytes per block, 1 lane: bytes 16*chunk .. 16*chunk+16.
            let mut block = [0u8; 16];
            for (i, b) in block.iter_mut().enumerate() {
                *b = (16 * chunk + i) as u8;
            }
            let mut planes = slice(std::slice::from_ref(&block));
            circuit(&mut planes);
            unslice(&planes, std::slice::from_mut(&mut block));
            out[16 * chunk..16 * chunk + 16].copy_from_slice(&block);
        }
        out
    }

    #[test]
    fn slice_unslice_round_trips() {
        let mut blocks = [[0u8; 16]; 4];
        for (i, b) in blocks.iter_mut().enumerate() {
            for (j, byte) in b.iter_mut().enumerate() {
                *byte = (i * 16 + j) as u8;
            }
        }
        for n in 1..=4 {
            let planes = slice(&blocks[..n]);
            let mut back = [[0xffu8; 16]; 4];
            unslice(&planes, &mut back[..n]);
            assert_eq!(back[..n], blocks[..n], "lanes={n}");
        }
    }

    #[test]
    fn sbox_circuit_matches_table_for_all_bytes() {
        let got = bytewise(sub_bytes);
        for (i, &g) in got.iter().enumerate() {
            assert_eq!(g, SBOX[i], "S[{i:#04x}]");
        }
    }

    #[test]
    fn inv_sbox_circuit_matches_table_for_all_bytes() {
        let got = bytewise(inv_sub_bytes);
        for (i, &g) in got.iter().enumerate() {
            assert_eq!(g, INV_SBOX[i], "Si[{i:#04x}]");
        }
    }

    #[test]
    fn gf_sq_matches_gmul_for_all_bytes() {
        let got = bytewise(|p| *p = gf_sq(p));
        for (i, &g) in got.iter().enumerate() {
            assert_eq!(g, gmul(i as u8, i as u8), "sq({i:#04x})");
        }
    }

    #[test]
    fn gf_inv_is_an_involution_and_fixes_zero() {
        let inv = bytewise(|p| *p = gf_inv(p));
        assert_eq!(inv[0], 0);
        assert_eq!(inv[1], 1);
        for (i, &g) in inv.iter().enumerate().skip(1) {
            assert_eq!(gmul(i as u8, g), 1, "x * x^-1 for {i:#04x}");
        }
    }

    #[test]
    fn shift_rows_matches_baseline_permutation() {
        // One lane with distinct bytes; compare against the byte-wise
        // definition (row r rotates left r).
        let mut block = [0u8; 16];
        for (i, b) in block.iter_mut().enumerate() {
            *b = i as u8;
        }
        let mut expect = block;
        for r in 1..4 {
            let row = [expect[r], expect[4 + r], expect[8 + r], expect[12 + r]];
            for c in 0..4 {
                expect[4 * c + r] = row[(c + r) % 4];
            }
        }
        let mut planes = slice(std::slice::from_ref(&block));
        shift_rows(&mut planes);
        let mut got = [0u8; 16];
        unslice(&planes, std::slice::from_mut(&mut got));
        assert_eq!(got, expect);

        // And the inverse undoes it.
        inv_shift_rows(&mut planes);
        unslice(&planes, std::slice::from_mut(&mut got));
        assert_eq!(got, block);
    }

    #[test]
    fn mix_columns_inverts() {
        let mut block = [0u8; 16];
        for (i, b) in block.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(0x1f).wrapping_add(3);
        }
        let mut planes = slice(std::slice::from_ref(&block));
        mix_columns(&mut planes);
        inv_mix_columns(&mut planes);
        let mut got = [0u8; 16];
        unslice(&planes, std::slice::from_mut(&mut got));
        assert_eq!(got, block);
    }
}
