//! The compact byte-oriented AES-128 this crate shipped first, kept
//! verbatim as the reference implementation the fast tiers are pinned
//! against. Do not use on the wire path — it is an order of
//! magnitude slower, especially decryption (whose InvMixColumns runs a
//! bitwise GF(2^8) multiply per byte), and its 256-byte S-box lookups
//! are not constant-time.

use super::{gmul, xtime, Block, BlockCipher, INV_SBOX, ROUND_KEYS, SBOX};

/// An expanded AES-128 key, byte-oriented implementation.
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; ROUND_KEYS],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.write_str("baseline::Aes128 { .. }")
    }
}

impl Aes128 {
    /// Expands a 128-bit key into the full round-key schedule.
    pub fn new(key: &[u8; 16]) -> Self {
        let mut w = [[0u8; 4]; 4 * ROUND_KEYS];
        for i in 0..4 {
            w[i].copy_from_slice(&key[4 * i..4 * i + 4]);
        }
        let mut rcon = 1u8;
        for i in 4..4 * ROUND_KEYS {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for b in temp.iter_mut() {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= rcon;
                rcon = xtime(rcon);
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; ROUND_KEYS];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
        }
        Aes128 { round_keys }
    }

    /// Encrypts one 16-byte block.
    pub fn encrypt_block(&self, block: &Block) -> Block {
        let mut s = *block;
        add_round_key(&mut s, &self.round_keys[0]);
        for round in 1..10 {
            sub_bytes(&mut s);
            shift_rows(&mut s);
            mix_columns(&mut s);
            add_round_key(&mut s, &self.round_keys[round]);
        }
        sub_bytes(&mut s);
        shift_rows(&mut s);
        add_round_key(&mut s, &self.round_keys[10]);
        s
    }

    /// Decrypts one 16-byte block (the inverse cipher).
    pub fn decrypt_block(&self, block: &Block) -> Block {
        let mut s = *block;
        add_round_key(&mut s, &self.round_keys[10]);
        for round in (1..10).rev() {
            inv_shift_rows(&mut s);
            inv_sub_bytes(&mut s);
            add_round_key(&mut s, &self.round_keys[round]);
            inv_mix_columns(&mut s);
        }
        inv_shift_rows(&mut s);
        inv_sub_bytes(&mut s);
        add_round_key(&mut s, &self.round_keys[0]);
        s
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

#[inline]
fn add_round_key(state: &mut Block, rk: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(rk.iter()) {
        *s ^= k;
    }
}

#[inline]
fn sub_bytes(state: &mut Block) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

#[inline]
fn inv_sub_bytes(state: &mut Block) {
    for b in state.iter_mut() {
        *b = INV_SBOX[*b as usize];
    }
}

// State layout: byte `state[4*c + r]` is row `r`, column `c`
// (FIPS 197 §3.4).

#[inline]
fn shift_rows(state: &mut Block) {
    // Row r rotates left by r positions.
    for r in 1..4 {
        let row = [state[r], state[4 + r], state[8 + r], state[12 + r]];
        for c in 0..4 {
            state[4 * c + r] = row[(c + r) % 4];
        }
    }
}

#[inline]
fn inv_shift_rows(state: &mut Block) {
    for r in 1..4 {
        let row = [state[r], state[4 + r], state[8 + r], state[12 + r]];
        for c in 0..4 {
            state[4 * c + r] = row[(c + 4 - r) % 4];
        }
    }
}

#[inline]
fn mix_columns(state: &mut Block) {
    for c in 0..4 {
        let col = &mut state[4 * c..4 * c + 4];
        let a = [col[0], col[1], col[2], col[3]];
        let t = a[0] ^ a[1] ^ a[2] ^ a[3];
        col[0] = a[0] ^ t ^ xtime(a[0] ^ a[1]);
        col[1] = a[1] ^ t ^ xtime(a[1] ^ a[2]);
        col[2] = a[2] ^ t ^ xtime(a[2] ^ a[3]);
        col[3] = a[3] ^ t ^ xtime(a[3] ^ a[0]);
    }
}

#[inline]
fn inv_mix_columns(state: &mut Block) {
    for c in 0..4 {
        let col = &mut state[4 * c..4 * c + 4];
        let a = [col[0], col[1], col[2], col[3]];
        col[0] = gmul(a[0], 0x0e) ^ gmul(a[1], 0x0b) ^ gmul(a[2], 0x0d) ^ gmul(a[3], 0x09);
        col[1] = gmul(a[0], 0x09) ^ gmul(a[1], 0x0e) ^ gmul(a[2], 0x0b) ^ gmul(a[3], 0x0d);
        col[2] = gmul(a[0], 0x0d) ^ gmul(a[1], 0x09) ^ gmul(a[2], 0x0e) ^ gmul(a[3], 0x0b);
        col[3] = gmul(a[0], 0x0b) ^ gmul(a[1], 0x0d) ^ gmul(a[2], 0x09) ^ gmul(a[3], 0x0e);
    }
}
