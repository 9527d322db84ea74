//! The hardware backend: AES-NI, one instruction per round. The decrypt
//! schedule handed in is the equivalent-inverse-cipher one (reversed,
//! `InvMixColumns`-transformed inner rounds) — exactly what `AESDEC`
//! expects.
//!
//! OCB calls this one block at a time, in each packet's offset order: a
//! datagram is a handful of blocks, and at the traffic this serves a
//! batch of packets wide enough to fill the AES unit's pipeline does not
//! form.

use super::{Block, ROUND_KEYS};
use std::arch::x86_64::{
    __m128i, _mm_aesdec_si128, _mm_aesdeclast_si128, _mm_aesenc_si128, _mm_aesenclast_si128,
    _mm_loadu_si128, _mm_storeu_si128, _mm_xor_si128,
};

#[inline]
fn load(bytes: &[u8; 16]) -> __m128i {
    // SAFETY: an unaligned 16-byte load from a live `&[u8; 16]` —
    // in bounds by construction, and `_mm_loadu_si128` imposes no
    // alignment requirement (SSE2 is baseline on x86_64).
    unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
}

/// # Safety
///
/// The caller must have verified the CPU supports the `aes` feature.
#[target_feature(enable = "aes")]
pub unsafe fn encrypt_block(rk: &[[u8; 16]; ROUND_KEYS], block: &Block) -> Block {
    // SAFETY: the AES intrinsics require the `aes` CPU feature,
    // which this fn's caller contract guarantees (the dispatch site
    // only picks this backend after runtime detection); the store
    // writes exactly 16 bytes into a local `[u8; 16]`.
    unsafe {
        let mut s = _mm_xor_si128(load(block), load(&rk[0]));
        for k in &rk[1..10] {
            s = _mm_aesenc_si128(s, load(k));
        }
        s = _mm_aesenclast_si128(s, load(&rk[10]));
        let mut out = [0u8; 16];
        _mm_storeu_si128(out.as_mut_ptr().cast(), s);
        out
    }
}

/// # Safety
///
/// The caller must have verified the CPU supports the `aes` feature.
#[target_feature(enable = "aes")]
pub unsafe fn decrypt_block(rk: &[[u8; 16]; ROUND_KEYS], block: &Block) -> Block {
    // SAFETY: as in `encrypt_block` — `aes` is guaranteed by the
    // caller contract (runtime-detected before this backend is picked),
    // and the store writes exactly 16 bytes into a local array.
    unsafe {
        let mut s = _mm_xor_si128(load(block), load(&rk[0]));
        for k in &rk[1..10] {
            s = _mm_aesdec_si128(s, load(k));
        }
        s = _mm_aesdeclast_si128(s, load(&rk[10]));
        let mut out = [0u8; 16];
        _mm_storeu_si128(out.as_mut_ptr().cast(), s);
        out
    }
}
