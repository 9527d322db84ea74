//! The hardware backend: AES-NI, one instruction per round. The decrypt
//! schedule handed in is the equivalent-inverse-cipher one (reversed,
//! `InvMixColumns`-transformed inner rounds) — exactly what `AESDEC`
//! expects.
//!
//! The batch entry points ([`encrypt_blocks`]/[`decrypt_blocks`], and
//! their `_vaes` variants) are the cross-packet pipelining seam:
//! `AESENC`/`AESDEC` have multi-cycle latency but single-cycle
//! throughput, so a lone block stream leaves the AES unit mostly idle
//! waiting on its own dependency chain. The lane kernels keep 8 (then
//! 4) *independent* blocks in flight per round-key load; on parts with
//! AVX-512 VAES the wide kernels push that to 16 blocks per group, four
//! per instruction. This is what lets OCB interleave blocks drawn from
//! different packets of one batch, such as the fragments of an
//! instruction sealed together.

use super::{Block, ROUND_KEYS};
use std::arch::x86_64::{
    __m128i, _mm512_aesdec_epi128, _mm512_aesdeclast_epi128, _mm512_aesenc_epi128,
    _mm512_aesenclast_epi128, _mm512_broadcast_i32x4, _mm512_loadu_si512, _mm512_storeu_si512,
    _mm512_xor_si512, _mm_aesdec_si128, _mm_aesdeclast_si128, _mm_aesenc_si128,
    _mm_aesenclast_si128, _mm_loadu_si128, _mm_storeu_si128, _mm_xor_si128,
};

/// True when the wider VAES tier is usable: AVX-512F registers with the
/// vector-AES extension, four blocks per instruction. Detected once at
/// key expansion, like the base `aes` feature.
pub fn vaes_available() -> bool {
    std::arch::is_x86_feature_detected!("avx512f") && std::arch::is_x86_feature_detected!("vaes")
}

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

/// Defines one fixed-width lane kernel: `$lanes` independent blocks
/// advanced one round at a time, each round key loaded once and fed to
/// every lane, so the lanes fill the AES unit's pipeline stages.
macro_rules! lane_kernel {
    ($name:ident, $round:ident, $last:ident, $lanes:expr) => {
        /// # Safety
        ///
        /// The caller must have verified the CPU supports the `aes`
        /// feature, and `blocks` must hold exactly `$lanes` blocks.
        #[target_feature(enable = "aes")]
        unsafe fn $name(rk: &[[u8; 16]; ROUND_KEYS], blocks: &mut [Block]) {
            debug_assert_eq!(blocks.len(), $lanes);
            // SAFETY: the AES intrinsics require the `aes` CPU feature,
            // guaranteed by this fn's caller contract; every load/store
            // touches exactly 16 bytes of a live block in `blocks`
            // (length checked by the caller contract), unaligned ops
            // throughout.
            unsafe {
                let k0 = load(&rk[0]);
                let mut s = [k0; $lanes];
                for (lane, b) in s.iter_mut().zip(blocks.iter()) {
                    *lane = _mm_xor_si128(load(b), k0);
                }
                for k in &rk[1..10] {
                    let k = load(k);
                    for lane in s.iter_mut() {
                        *lane = $round(*lane, k);
                    }
                }
                let klast = load(&rk[10]);
                for (lane, b) in s.iter_mut().zip(blocks.iter_mut()) {
                    *lane = $last(*lane, klast);
                    _mm_storeu_si128(b.as_mut_ptr().cast(), *lane);
                }
            }
        }
    };
}

lane_kernel!(encrypt8, _mm_aesenc_si128, _mm_aesenclast_si128, 8);
lane_kernel!(encrypt4, _mm_aesenc_si128, _mm_aesenclast_si128, 4);
lane_kernel!(decrypt8, _mm_aesdec_si128, _mm_aesdeclast_si128, 8);
lane_kernel!(decrypt4, _mm_aesdec_si128, _mm_aesdeclast_si128, 4);

/// Defines one VAES kernel: 16 independent blocks per iteration as four
/// zmm lanes of four blocks each, every round key broadcast once across
/// all 512 bits — four times the per-instruction width of the SSE lane
/// kernels, for batches wide enough to fill it.
macro_rules! vaes_kernel {
    ($name:ident, $round:ident, $last:ident) => {
        /// # Safety
        ///
        /// The caller must have verified the CPU supports the `avx512f`
        /// and `vaes` features, and `blocks.len()` must be a multiple
        /// of 16.
        #[target_feature(enable = "avx512f,vaes")]
        unsafe fn $name(rk: &[[u8; 16]; ROUND_KEYS], blocks: &mut [Block]) {
            debug_assert_eq!(blocks.len() % 16, 0);
            // SAFETY: the 512-bit AES intrinsics require `avx512f` +
            // `vaes`, guaranteed by this fn's caller contract; each
            // iteration loads and stores exactly 256 bytes (four zmm
            // lanes) of a 16-block chunk of `blocks` — in bounds because
            // `chunks_exact_mut(16)` yields exactly 16 contiguous
            // `[u8; 16]`s — and the unaligned load/store intrinsics
            // impose no alignment requirement.
            unsafe {
                for group in blocks.chunks_exact_mut(16) {
                    let p = group.as_mut_ptr().cast::<u8>();
                    let mut b0 = _mm512_loadu_si512(p.cast());
                    let mut b1 = _mm512_loadu_si512(p.add(64).cast());
                    let mut b2 = _mm512_loadu_si512(p.add(128).cast());
                    let mut b3 = _mm512_loadu_si512(p.add(192).cast());
                    let k = _mm512_broadcast_i32x4(load(&rk[0]));
                    b0 = _mm512_xor_si512(b0, k);
                    b1 = _mm512_xor_si512(b1, k);
                    b2 = _mm512_xor_si512(b2, k);
                    b3 = _mm512_xor_si512(b3, k);
                    for k in &rk[1..10] {
                        let k = _mm512_broadcast_i32x4(load(k));
                        b0 = $round(b0, k);
                        b1 = $round(b1, k);
                        b2 = $round(b2, k);
                        b3 = $round(b3, k);
                    }
                    let k = _mm512_broadcast_i32x4(load(&rk[10]));
                    b0 = $last(b0, k);
                    b1 = $last(b1, k);
                    b2 = $last(b2, k);
                    b3 = $last(b3, k);
                    _mm512_storeu_si512(p.cast(), b0);
                    _mm512_storeu_si512(p.add(64).cast(), b1);
                    _mm512_storeu_si512(p.add(128).cast(), b2);
                    _mm512_storeu_si512(p.add(192).cast(), b3);
                }
            }
        }
    };
}

vaes_kernel!(encrypt16, _mm512_aesenc_epi128, _mm512_aesenclast_epi128);
vaes_kernel!(decrypt16, _mm512_aesdec_epi128, _mm512_aesdeclast_epi128);

/// Defines one fixed-width *fused whitening* lane kernel — the OCB
/// full-block shape `dst[i] = E(src[i] ^ w_i) ^ w_i` with
/// `w_i = pre[i] ^ init` — so the masks live in registers for the whole
/// round trip instead of costing separate whiten and un-whiten memory
/// passes over the blocks.
macro_rules! whitened_lane_kernel {
    ($name:ident, $round:ident, $last:ident, $lanes:expr) => {
        /// # Safety
        ///
        /// The caller must have verified the CPU supports the `aes`
        /// feature, and `src`, `dst`, and `pre` must each hold exactly
        /// `$lanes` blocks.
        #[target_feature(enable = "aes")]
        unsafe fn $name(
            rk: &[[u8; 16]; ROUND_KEYS],
            src: &[Block],
            dst: &mut [Block],
            pre: &[Block],
            init: __m128i,
        ) {
            debug_assert_eq!(src.len(), $lanes);
            debug_assert_eq!(dst.len(), $lanes);
            debug_assert_eq!(pre.len(), $lanes);
            // SAFETY: the AES intrinsics require the `aes` CPU feature,
            // guaranteed by this fn's caller contract; every load/store
            // touches exactly 16 bytes of a live block in `src`/`pre`/
            // `dst` (lengths checked by the caller contract), unaligned
            // ops throughout.
            unsafe {
                let k0 = load(&rk[0]);
                let mut w = [k0; $lanes];
                let mut s = [k0; $lanes];
                for i in 0..$lanes {
                    w[i] = _mm_xor_si128(load(&pre[i]), init);
                    s[i] = _mm_xor_si128(_mm_xor_si128(load(&src[i]), w[i]), k0);
                }
                for k in &rk[1..10] {
                    let k = load(k);
                    for lane in s.iter_mut() {
                        *lane = $round(*lane, k);
                    }
                }
                let klast = load(&rk[10]);
                for i in 0..$lanes {
                    let out = _mm_xor_si128($last(s[i], klast), w[i]);
                    _mm_storeu_si128(dst[i].as_mut_ptr().cast(), out);
                }
            }
        }
    };
}

whitened_lane_kernel!(encrypt8_whitened, _mm_aesenc_si128, _mm_aesenclast_si128, 8);
whitened_lane_kernel!(encrypt4_whitened, _mm_aesenc_si128, _mm_aesenclast_si128, 4);
whitened_lane_kernel!(decrypt8_whitened, _mm_aesdec_si128, _mm_aesdeclast_si128, 8);
whitened_lane_kernel!(decrypt4_whitened, _mm_aesdec_si128, _mm_aesdeclast_si128, 4);

/// Defines one VAES fused-whitening kernel: 16 blocks per iteration as
/// four zmm lanes, each lane's whitening mask (`pre ^ init`) computed
/// once and held in a register across the rounds.
macro_rules! whitened_vaes_kernel {
    ($name:ident, $round:ident, $last:ident) => {
        /// # Safety
        ///
        /// The caller must have verified the CPU supports the `avx512f`
        /// and `vaes` features; `src.len()` must be a multiple of 16 and
        /// `dst`/`pre` must be exactly as long as `src`.
        #[target_feature(enable = "avx512f,vaes")]
        unsafe fn $name(
            rk: &[[u8; 16]; ROUND_KEYS],
            src: &[Block],
            dst: &mut [Block],
            pre: &[Block],
            init: __m128i,
        ) {
            debug_assert_eq!(src.len() % 16, 0);
            debug_assert_eq!(dst.len(), src.len());
            debug_assert_eq!(pre.len(), src.len());
            // SAFETY: the 512-bit intrinsics require `avx512f` + `vaes`,
            // guaranteed by this fn's caller contract; each iteration
            // loads 256 bytes from `src` and `pre` and stores 256 bytes
            // to `dst` at offset `16 * g` blocks — in bounds because `g`
            // ranges over whole 16-block groups of `src` and the three
            // slices have equal length (debug-asserted, upheld by the
            // callers) — and the unaligned load/store intrinsics impose
            // no alignment requirement.
            unsafe {
                let initw = _mm512_broadcast_i32x4(init);
                for g in 0..src.len() / 16 {
                    let sp = src.as_ptr().add(16 * g).cast::<u8>();
                    let pp = pre.as_ptr().add(16 * g).cast::<u8>();
                    let dp = dst.as_mut_ptr().add(16 * g).cast::<u8>();
                    let w0 = _mm512_xor_si512(_mm512_loadu_si512(pp.cast()), initw);
                    let w1 = _mm512_xor_si512(_mm512_loadu_si512(pp.add(64).cast()), initw);
                    let w2 = _mm512_xor_si512(_mm512_loadu_si512(pp.add(128).cast()), initw);
                    let w3 = _mm512_xor_si512(_mm512_loadu_si512(pp.add(192).cast()), initw);
                    let k = _mm512_broadcast_i32x4(load(&rk[0]));
                    let mut b0 =
                        _mm512_xor_si512(_mm512_xor_si512(_mm512_loadu_si512(sp.cast()), w0), k);
                    let mut b1 = _mm512_xor_si512(
                        _mm512_xor_si512(_mm512_loadu_si512(sp.add(64).cast()), w1),
                        k,
                    );
                    let mut b2 = _mm512_xor_si512(
                        _mm512_xor_si512(_mm512_loadu_si512(sp.add(128).cast()), w2),
                        k,
                    );
                    let mut b3 = _mm512_xor_si512(
                        _mm512_xor_si512(_mm512_loadu_si512(sp.add(192).cast()), w3),
                        k,
                    );
                    for k in &rk[1..10] {
                        let k = _mm512_broadcast_i32x4(load(k));
                        b0 = $round(b0, k);
                        b1 = $round(b1, k);
                        b2 = $round(b2, k);
                        b3 = $round(b3, k);
                    }
                    let k = _mm512_broadcast_i32x4(load(&rk[10]));
                    b0 = _mm512_xor_si512($last(b0, k), w0);
                    b1 = _mm512_xor_si512($last(b1, k), w1);
                    b2 = _mm512_xor_si512($last(b2, k), w2);
                    b3 = _mm512_xor_si512($last(b3, k), w3);
                    _mm512_storeu_si512(dp.cast(), b0);
                    _mm512_storeu_si512(dp.add(64).cast(), b1);
                    _mm512_storeu_si512(dp.add(128).cast(), b2);
                    _mm512_storeu_si512(dp.add(192).cast(), b3);
                }
            }
        }
    };
}

whitened_vaes_kernel!(
    encrypt16_whitened,
    _mm512_aesenc_epi128,
    _mm512_aesenclast_epi128
);
whitened_vaes_kernel!(
    decrypt16_whitened,
    _mm512_aesdec_epi128,
    _mm512_aesdeclast_epi128
);

/// Fused OCB whitening + encryption over SSE lanes:
/// `dst[i] = E(src[i] ^ pre[i] ^ init) ^ pre[i] ^ init`, 8-wide lanes,
/// then a 4-wide lane, then singles. Byte-identical to applying the
/// masks around a per-block encrypt loop.
///
/// # Safety
///
/// The caller must have verified the CPU supports the `aes` feature, and
/// `dst` and `pre` must be exactly as long as `src`.
pub unsafe fn encrypt_blocks_whitened(
    rk: &[[u8; 16]; ROUND_KEYS],
    src: &[Block],
    dst: &mut [Block],
    pre: &[Block],
    init: &Block,
) {
    let iv = load(init);
    let n = src.len();
    let mut i = 0;
    while n - i >= 8 {
        // SAFETY: `aes` is guaranteed by this fn's own caller contract;
        // each slice is exactly 8 blocks.
        unsafe { encrypt8_whitened(rk, &src[i..i + 8], &mut dst[i..i + 8], &pre[i..i + 8], iv) };
        i += 8;
    }
    if n - i >= 4 {
        // SAFETY: as above; exactly 4 blocks per slice.
        unsafe { encrypt4_whitened(rk, &src[i..i + 4], &mut dst[i..i + 4], &pre[i..i + 4], iv) };
        i += 4;
    }
    while i < n {
        let w = u128::from_ne_bytes(pre[i]) ^ u128::from_ne_bytes(*init);
        let x = (u128::from_ne_bytes(src[i]) ^ w).to_ne_bytes();
        // SAFETY: `aes` is guaranteed by the caller contract.
        let e = unsafe { encrypt_block(rk, &x) };
        dst[i] = (u128::from_ne_bytes(e) ^ w).to_ne_bytes();
        i += 1;
    }
}

/// Fused OCB whitening + decryption (see [`encrypt_blocks_whitened`]).
///
/// # Safety
///
/// The caller must have verified the CPU supports the `aes` feature, and
/// `dst` and `pre` must be exactly as long as `src`.
pub unsafe fn decrypt_blocks_whitened(
    rk: &[[u8; 16]; ROUND_KEYS],
    src: &[Block],
    dst: &mut [Block],
    pre: &[Block],
    init: &Block,
) {
    let iv = load(init);
    let n = src.len();
    let mut i = 0;
    while n - i >= 8 {
        // SAFETY: `aes` is guaranteed by this fn's own caller contract;
        // each slice is exactly 8 blocks.
        unsafe { decrypt8_whitened(rk, &src[i..i + 8], &mut dst[i..i + 8], &pre[i..i + 8], iv) };
        i += 8;
    }
    if n - i >= 4 {
        // SAFETY: as above; exactly 4 blocks per slice.
        unsafe { decrypt4_whitened(rk, &src[i..i + 4], &mut dst[i..i + 4], &pre[i..i + 4], iv) };
        i += 4;
    }
    while i < n {
        let w = u128::from_ne_bytes(pre[i]) ^ u128::from_ne_bytes(*init);
        let x = (u128::from_ne_bytes(src[i]) ^ w).to_ne_bytes();
        // SAFETY: `aes` is guaranteed by the caller contract.
        let d = unsafe { decrypt_block(rk, &x) };
        dst[i] = (u128::from_ne_bytes(d) ^ w).to_ne_bytes();
        i += 1;
    }
}

/// Fused OCB whitening + encryption through the VAES tier: whole
/// 16-block groups in the 512-bit kernel, the SSE fused path for the
/// tail (see [`encrypt_blocks_whitened`]).
///
/// # Safety
///
/// The caller must have verified the CPU supports the `aes`, `avx512f`,
/// and `vaes` features, and `dst` and `pre` must be exactly as long as
/// `src`.
pub unsafe fn encrypt_blocks_whitened_vaes(
    rk: &[[u8; 16]; ROUND_KEYS],
    src: &[Block],
    dst: &mut [Block],
    pre: &[Block],
    init: &Block,
) {
    let split = src.len() / 16 * 16;
    // SAFETY: `avx512f` + `vaes` are guaranteed by this fn's own caller
    // contract; the prefix length is a multiple of 16 by construction
    // and the three prefixes are equally long.
    unsafe {
        encrypt16_whitened(
            rk,
            &src[..split],
            &mut dst[..split],
            &pre[..split],
            load(init),
        )
    };
    // SAFETY: `aes` is guaranteed by the caller contract; equal-length
    // tails.
    unsafe { encrypt_blocks_whitened(rk, &src[split..], &mut dst[split..], &pre[split..], init) };
}

/// Fused OCB whitening + decryption through the VAES tier (see
/// [`encrypt_blocks_whitened_vaes`]).
///
/// # Safety
///
/// The caller must have verified the CPU supports the `aes`, `avx512f`,
/// and `vaes` features, and `dst` and `pre` must be exactly as long as
/// `src`.
pub unsafe fn decrypt_blocks_whitened_vaes(
    rk: &[[u8; 16]; ROUND_KEYS],
    src: &[Block],
    dst: &mut [Block],
    pre: &[Block],
    init: &Block,
) {
    let split = src.len() / 16 * 16;
    // SAFETY: `avx512f` + `vaes` are guaranteed by this fn's own caller
    // contract; the prefix length is a multiple of 16 by construction
    // and the three prefixes are equally long.
    unsafe {
        decrypt16_whitened(
            rk,
            &src[..split],
            &mut dst[..split],
            &pre[..split],
            load(init),
        )
    };
    // SAFETY: `aes` is guaranteed by the caller contract; equal-length
    // tails.
    unsafe { decrypt_blocks_whitened(rk, &src[split..], &mut dst[split..], &pre[split..], init) };
}

/// Encrypts every block in place through the VAES tier: 16-block groups
/// across four zmm lanes, the SSE lane path for the tail. Byte-identical
/// to a per-block loop.
///
/// # Safety
///
/// The caller must have verified the CPU supports the `aes`, `avx512f`,
/// and `vaes` features.
pub unsafe fn encrypt_blocks_vaes(rk: &[[u8; 16]; ROUND_KEYS], blocks: &mut [Block]) {
    let split = blocks.len() / 16 * 16;
    let (wide, tail) = blocks.split_at_mut(split);
    // SAFETY: `avx512f` + `vaes` are guaranteed by this fn's own caller
    // contract, and `wide.len()` is a multiple of 16 by construction.
    unsafe { encrypt16(rk, wide) };
    // SAFETY: `aes` is guaranteed by the caller contract.
    unsafe { encrypt_blocks(rk, tail) };
}

/// Decrypts every block in place (see [`encrypt_blocks_vaes`]).
///
/// # Safety
///
/// The caller must have verified the CPU supports the `aes`, `avx512f`,
/// and `vaes` features.
pub unsafe fn decrypt_blocks_vaes(rk: &[[u8; 16]; ROUND_KEYS], blocks: &mut [Block]) {
    let split = blocks.len() / 16 * 16;
    let (wide, tail) = blocks.split_at_mut(split);
    // SAFETY: `avx512f` + `vaes` are guaranteed by this fn's own caller
    // contract, and `wide.len()` is a multiple of 16 by construction.
    unsafe { decrypt16(rk, wide) };
    // SAFETY: `aes` is guaranteed by the caller contract.
    unsafe { decrypt_blocks(rk, tail) };
}

/// Encrypts every block in place: 8-wide lanes, then a 4-wide lane,
/// then singles. Byte-identical to a per-block loop.
///
/// # Safety
///
/// The caller must have verified the CPU supports the `aes` feature.
pub unsafe fn encrypt_blocks(rk: &[[u8; 16]; ROUND_KEYS], blocks: &mut [Block]) {
    let mut eights = blocks.chunks_exact_mut(8);
    for chunk in &mut eights {
        // SAFETY: `aes` is guaranteed by this fn's own caller contract;
        // `chunks_exact_mut(8)` yields exactly 8 blocks.
        unsafe { encrypt8(rk, chunk) };
    }
    let rest = eights.into_remainder();
    let mut fours = rest.chunks_exact_mut(4);
    for chunk in &mut fours {
        // SAFETY: as above; exactly 4 blocks per chunk.
        unsafe { encrypt4(rk, chunk) };
    }
    for b in fours.into_remainder() {
        // SAFETY: `aes` is guaranteed by the caller contract.
        *b = unsafe { encrypt_block(rk, b) };
    }
}

/// Decrypts every block in place (see [`encrypt_blocks`]).
///
/// # Safety
///
/// The caller must have verified the CPU supports the `aes` feature.
pub unsafe fn decrypt_blocks(rk: &[[u8; 16]; ROUND_KEYS], blocks: &mut [Block]) {
    let mut eights = blocks.chunks_exact_mut(8);
    for chunk in &mut eights {
        // SAFETY: `aes` is guaranteed by this fn's own caller contract;
        // `chunks_exact_mut(8)` yields exactly 8 blocks.
        unsafe { decrypt8(rk, chunk) };
    }
    let rest = eights.into_remainder();
    let mut fours = rest.chunks_exact_mut(4);
    for chunk in &mut fours {
        // SAFETY: as above; exactly 4 blocks per chunk.
        unsafe { decrypt4(rk, chunk) };
    }
    for b in fours.into_remainder() {
        // SAFETY: `aes` is guaranteed by the caller contract.
        *b = unsafe { decrypt_block(rk, b) };
    }
}
