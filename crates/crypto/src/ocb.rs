//! OCB3 authenticated encryption (RFC 7253) over AES-128.
//!
//! The paper cites Krovetz & Rogaway's OCB mode (§2.2, ref. 5): a single-key,
//! single-pass AEAD that is both fast and provably secure. We implement the
//! standardized OCB3 variant, `AEAD_AES_128_OCB_TAGLEN128`: 128-bit tags and
//! nonces of up to 120 bits (SSP uses 96-bit nonces carrying the direction
//! bit and packet sequence number).
//!
//! The implementation follows the RFC's pseudocode closely; the unit tests
//! check every published RFC 7253 sample vector for this parameter set.
//!
//! Three API shapes cover the same algorithm: [`Ocb::seal`]/[`Ocb::open`]
//! allocate their output, [`Ocb::seal_into`]/[`Ocb::open_into`] append
//! into a caller-supplied buffer — the per-datagram hot path reuses one
//! buffer across packets and never touches the heap — and
//! [`Ocb::seal_many_into`]/[`Ocb::open_many_into`] process a whole batch
//! of packets per call. The batch variants exist for throughput: OCB's
//! block inputs within one packet form a serial offset chain, but blocks
//! from *different* packets are independent, so the batch path gathers
//! them and crosses the [`BlockCipher`] seam in a handful of multi-block
//! calls (four per batch) that keep hardware AES pipelines or bitslice
//! lanes full. Outputs are byte-identical to a per-packet loop, and a
//! failed tag on one packet never affects its batch siblings. The
//! allocating variants are thin wrappers over the `_into` ones, so the
//! RFC vectors (and a property test) pin all three.

use crate::aes::{Aes128, Block, BlockCipher};
use crate::CryptoError;

/// OCB3 tag length in bytes (TAGLEN128 parameter set).
pub const TAG_LEN: usize = 16;

/// XOR two blocks.
#[inline]
fn xor(a: &Block, b: &Block) -> Block {
    (u128::from_ne_bytes(*a) ^ u128::from_ne_bytes(*b)).to_ne_bytes()
}

/// Doubling in GF(2^128) per RFC 7253 §2: shift left one bit and reduce.
#[inline]
fn double(b: &Block) -> Block {
    let mut out = [0u8; 16];
    let carry = b[0] >> 7;
    for i in 0..15 {
        out[i] = (b[i] << 1) | (b[i + 1] >> 7);
    }
    out[15] = (b[15] << 1) ^ (carry * 0x87);
    out
}

/// Number of trailing zeros of a positive block index.
#[inline]
fn ntz(i: u64) -> usize {
    debug_assert!(i > 0);
    i.trailing_zeros() as usize
}

/// The widest batch-kernel group (one VAES 16-block group; two 8-lane
/// groups on SSE parts). A packet's full blocks are split at a multiple
/// of this: whole groups cipher *in place* in the packet's own output
/// buffer (its own blocks already fill the lanes), and the ragged tail
/// joins the cross-packet pool — so lanes stay full whether a batch is
/// a few MTU-sized fragments or sixty keystrokes.
const WIDE_RUN: usize = 16;

/// Reinterprets a byte slice whose length is a multiple of 16 as cipher
/// blocks, so a packet's pre-sized output run can cross the
/// [`BlockCipher`] batch seam in place — no side buffer, no scatter
/// copy.
#[inline]
fn as_blocks_mut(bytes: &mut [u8]) -> &mut [Block] {
    debug_assert_eq!(bytes.len() % 16, 0);
    // SAFETY: `Block = [u8; 16]` has alignment 1 and no invalid bit
    // patterns, the pointer derives from a live unique borrow, and the
    // element count `len / 16` covers exactly the same bytes (the
    // truncating division matches the debug-asserted divisibility).
    unsafe { std::slice::from_raw_parts_mut(bytes.as_mut_ptr().cast(), bytes.len() / 16) }
}

/// The shared (read-only) counterpart of [`as_blocks_mut`], for feeding
/// a packet's input bytes to the fused whitened cipher seam without
/// copying them first.
#[inline]
fn as_blocks(bytes: &[u8]) -> &[Block] {
    debug_assert_eq!(bytes.len() % 16, 0);
    // SAFETY: as in `as_blocks_mut`, minus uniqueness — a shared view of
    // the same bytes at alignment 1.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast(), bytes.len() / 16) }
}

/// The nonce-dependent cipher input and bit offset for the initial
/// offset computation (RFC 7253 §4.2): the `Top` block whose encryption
/// is `Ktop`, and `bottom`, the 6-bit stretch shift.
///
/// # Panics
///
/// Panics if the nonce is longer than 15 bytes (the RFC limit).
fn nonce_top(nonce: &[u8]) -> (Block, usize) {
    assert!(nonce.len() <= 15, "OCB nonce must be at most 120 bits");
    // Nonce = num2str(TAGLEN mod 128, 7) || zeros(120 - bitlen(N)) || 1 || N.
    // With TAGLEN = 128 the leading 7 bits are zero.
    let mut padded = [0u8; 16];
    padded[15 - nonce.len()] = 0x01;
    padded[16 - nonce.len()..].copy_from_slice(nonce);
    let bottom = (padded[15] & 0x3f) as usize;
    let mut top = padded;
    top[15] &= 0xc0;
    (top, bottom)
}

/// Finishes the initial-offset computation from an already-encrypted
/// `Ktop`: `Offset_0 = Stretch[1+bottom .. 128+bottom]`.
fn offset_from_ktop(ktop: &Block, bottom: usize) -> Block {
    // Stretch = Ktop || (Ktop[1..64] xor Ktop[9..72]).
    let mut stretch = [0u8; 24];
    stretch[..16].copy_from_slice(ktop);
    for i in 0..8 {
        stretch[16 + i] = ktop[i] ^ ktop[i + 1];
    }
    let mut offset = [0u8; 16];
    let byteshift = bottom / 8;
    let bitshift = bottom % 8;
    for i in 0..16 {
        offset[i] = if bitshift == 0 {
            stretch[i + byteshift]
        } else {
            (stretch[i + byteshift] << bitshift) | (stretch[i + byteshift + 1] >> (8 - bitshift))
        };
    }
    offset
}

/// One packet's inputs to [`Ocb::open_many_into`].
#[derive(Debug, Clone, Copy)]
pub struct OpenJob<'a> {
    /// The nonce (at most 15 bytes).
    pub nonce: &'a [u8],
    /// Associated data authenticated alongside the ciphertext.
    pub ad: &'a [u8],
    /// `ciphertext || tag`, as produced by seal.
    pub sealed: &'a [u8],
}

/// One packet's inputs to [`Ocb::seal_many_into`].
#[derive(Debug, Clone, Copy)]
pub struct SealJob<'a> {
    /// The nonce (at most 15 bytes).
    pub nonce: &'a [u8],
    /// Associated data authenticated alongside the ciphertext.
    pub ad: &'a [u8],
    /// The payload to encrypt.
    pub plaintext: &'a [u8],
}

/// An OCB3 encryption/decryption context bound to one AES-128 key.
///
/// Generic over the [`BlockCipher`] seam so the tests can instantiate
/// the same mode over `aes::baseline::Aes128` or the bitsliced
/// `aes::ct::Aes128` and pin each tier to the RFC 7253 vectors;
/// everything else uses the default (dispatched) cipher.
///
/// # Examples
///
/// ```
/// use mosh_crypto::ocb::Ocb;
///
/// let ocb = Ocb::new(&[0u8; 16]);
/// let nonce = [1u8; 12];
/// let ct = ocb.seal(&nonce, b"associated", b"secret payload");
/// let pt = ocb.open(&nonce, b"associated", &ct).unwrap();
/// assert_eq!(pt, b"secret payload");
/// ```
#[derive(Clone)]
pub struct Ocb<C: BlockCipher = Aes128> {
    aes: C,
    /// `L_*` in the RFC: `E_K(0^128)`.
    l_star: Block,
    /// `L_$`: `double(L_*)`.
    l_dollar: Block,
    /// `L_0, L_1, ...`: successive doublings of `L_$`, precomputed far beyond
    /// any datagram-sized message (2^40 blocks).
    l: Vec<Block>,
}

impl<C: BlockCipher> std::fmt::Debug for Ocb<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key-derived material.
        f.write_str("Ocb { .. }")
    }
}

impl Ocb {
    /// Creates a context from a 128-bit key (over the dispatched AES:
    /// hardware when available, constant-time bitsliced otherwise).
    pub fn new(key: &[u8; 16]) -> Self {
        Ocb::with_cipher(key)
    }
}

impl<C: BlockCipher> Ocb<C> {
    /// Creates a context from a 128-bit key over block cipher `C`.
    pub fn with_cipher(key: &[u8; 16]) -> Self {
        let aes = C::new(key);
        let l_star = aes.encrypt_block(&[0u8; 16]);
        let l_dollar = double(&l_star);
        let mut l = Vec::with_capacity(40);
        let mut cur = double(&l_dollar);
        for _ in 0..40 {
            l.push(cur);
            cur = double(&cur);
        }
        Ocb {
            aes,
            l_star,
            l_dollar,
            l,
        }
    }

    /// `L_{ntz(i)}` lookup for full-block processing.
    #[inline]
    fn l_at(&self, i: u64) -> &Block {
        &self.l[ntz(i)]
    }

    /// The offset-increment prefix table for a batch:
    /// `pre[i] = L_{ntz(1)} ^ … ^ L_{ntz(i+1)}`, so full block `i`
    /// (0-based) of *any* packet is whitened by `pre[i] ^ Offset_0` —
    /// the per-packet offset chains differ only in their nonce-derived
    /// `Offset_0`. One table sized to the batch's longest packet
    /// replaces every per-packet chain walk, and the fused whitened
    /// cipher seam indexes straight into it.
    fn offset_prefixes(&self, n: usize) -> Vec<Block> {
        let mut pre: Vec<Block> = Vec::with_capacity(n);
        let mut acc = [0u8; 16];
        for i in 1..=n as u64 {
            acc = xor(&acc, self.l_at(i));
            pre.push(acc);
        }
        pre
    }

    /// The RFC 7253 `HASH` function over associated data.
    fn hash(&self, ad: &[u8]) -> Block {
        let mut sum = [0u8; 16];
        let mut offset = [0u8; 16];
        let mut chunks = ad.chunks_exact(16);
        for (i, chunk) in chunks.by_ref().enumerate() {
            offset = xor(&offset, self.l_at((i + 1) as u64));
            let block: Block = chunk.try_into().expect("exact chunk");
            sum = xor(&sum, &self.aes.encrypt_block(&xor(&block, &offset)));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            offset = xor(&offset, &self.l_star);
            let mut block = [0u8; 16];
            block[..rest.len()].copy_from_slice(rest);
            block[rest.len()] = 0x80;
            sum = xor(&sum, &self.aes.encrypt_block(&xor(&block, &offset)));
        }
        sum
    }

    /// Computes the initial offset from a nonce (RFC 7253 §4.2).
    ///
    /// # Panics
    ///
    /// Panics if the nonce is longer than 15 bytes (the RFC limit).
    fn initial_offset(&self, nonce: &[u8]) -> Block {
        let (top, bottom) = nonce_top(nonce);
        offset_from_ktop(&self.aes.encrypt_block(&top), bottom)
    }

    /// Encrypts and authenticates `plaintext` with `ad` as associated data,
    /// **appending** `ciphertext || tag` (exactly `plaintext.len() +
    /// TAG_LEN` bytes) to `out`. Never allocates beyond growing `out`, so
    /// a reused buffer makes steady-state sealing allocation-free.
    pub fn seal_into(&self, nonce: &[u8], ad: &[u8], plaintext: &[u8], out: &mut Vec<u8>) {
        out.reserve(plaintext.len() + TAG_LEN);
        let mut offset = self.initial_offset(nonce);
        let mut checksum = [0u8; 16];

        let mut chunks = plaintext.chunks_exact(16);
        for (i, chunk) in chunks.by_ref().enumerate() {
            let block: Block = chunk.try_into().expect("exact chunk");
            offset = xor(&offset, self.l_at((i + 1) as u64));
            let c = xor(&offset, &self.aes.encrypt_block(&xor(&block, &offset)));
            out.extend_from_slice(&c);
            checksum = xor(&checksum, &block);
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            offset = xor(&offset, &self.l_star);
            let pad = self.aes.encrypt_block(&offset);
            for (i, &p) in rest.iter().enumerate() {
                out.push(p ^ pad[i]);
            }
            let mut block = [0u8; 16];
            block[..rest.len()].copy_from_slice(rest);
            block[rest.len()] = 0x80;
            checksum = xor(&checksum, &block);
        }

        let tag_body = xor(&xor(&checksum, &offset), &self.l_dollar);
        let tag = xor(&self.aes.encrypt_block(&tag_body), &self.hash(ad));
        out.extend_from_slice(&tag);
    }

    /// Encrypts and authenticates `plaintext` with `ad` as associated data.
    ///
    /// Returns `ciphertext || tag`; the output is exactly
    /// `plaintext.len() + TAG_LEN` bytes. Thin allocating wrapper over
    /// [`Ocb::seal_into`].
    pub fn seal(&self, nonce: &[u8], ad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        self.seal_into(nonce, ad, plaintext, &mut out);
        out
    }

    /// Verifies and decrypts `ciphertext || tag`, **appending** the
    /// plaintext to `out`. On any failure `out` is restored to its
    /// original length — no unauthenticated plaintext is ever released.
    /// Never allocates beyond growing `out`.
    pub fn open_into(
        &self,
        nonce: &[u8],
        ad: &[u8],
        sealed: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), CryptoError> {
        let start = out.len();
        if sealed.len() < TAG_LEN {
            return Err(CryptoError::Truncated);
        }
        let (ciphertext, received_tag) = sealed.split_at(sealed.len() - TAG_LEN);
        out.reserve(ciphertext.len());

        let mut offset = self.initial_offset(nonce);
        let mut checksum = [0u8; 16];

        let mut chunks = ciphertext.chunks_exact(16);
        for (i, chunk) in chunks.by_ref().enumerate() {
            let block: Block = chunk.try_into().expect("exact chunk");
            offset = xor(&offset, self.l_at((i + 1) as u64));
            let p = xor(&offset, &self.aes.decrypt_block(&xor(&block, &offset)));
            out.extend_from_slice(&p);
            checksum = xor(&checksum, &p);
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            offset = xor(&offset, &self.l_star);
            let pad = self.aes.encrypt_block(&offset);
            let partial = out.len();
            for (i, &c) in rest.iter().enumerate() {
                out.push(c ^ pad[i]);
            }
            let mut block = [0u8; 16];
            block[..rest.len()].copy_from_slice(&out[partial..]);
            block[rest.len()] = 0x80;
            checksum = xor(&checksum, &block);
        }

        let tag_body = xor(&xor(&checksum, &offset), &self.l_dollar);
        let expected = xor(&self.aes.encrypt_block(&tag_body), &self.hash(ad));

        // Constant-time comparison: accumulate differences, decide once.
        let mut diff = 0u8;
        for (a, b) in expected.iter().zip(received_tag.iter()) {
            diff |= a ^ b;
        }
        if diff != 0 {
            out.truncate(start);
            return Err(CryptoError::BadTag);
        }
        Ok(())
    }

    /// Verifies and decrypts `ciphertext || tag`.
    ///
    /// Returns [`CryptoError::BadTag`] if authentication fails, in which case
    /// no plaintext is released. Thin allocating wrapper over
    /// [`Ocb::open_into`].
    pub fn open(&self, nonce: &[u8], ad: &[u8], sealed: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let mut out = Vec::with_capacity(sealed.len().saturating_sub(TAG_LEN));
        self.open_into(nonce, ad, sealed, &mut out)?;
        Ok(out)
    }

    /// Seals a whole batch of packets, appending each `ciphertext || tag`
    /// to the corresponding `outs` buffer — byte-identical to calling
    /// [`Ocb::seal_into`] per job, but the AES work of *all* packets
    /// crosses the cipher in four multi-block calls (Ktops, full blocks,
    /// partial-block pads, tags), so independent packets fill hardware
    /// pipelines / bitslice lanes. A batch of one *is* the single-packet
    /// path.
    ///
    /// # Panics
    ///
    /// Panics unless `jobs` and `outs` have the same length.
    pub fn seal_many_into(&self, jobs: &[SealJob<'_>], outs: &mut [Vec<u8>]) {
        assert_eq!(jobs.len(), outs.len(), "one output buffer per job");
        if let [job] = jobs {
            self.seal_into(job.nonce, job.ad, job.plaintext, &mut outs[0]);
            return;
        }

        // Phase 0: every packet's Ktop in one cipher call.
        let mut bottoms = vec![0usize; jobs.len()];
        let mut ktops: Vec<Block> = Vec::with_capacity(jobs.len());
        for (k, job) in jobs.iter().enumerate() {
            let (top, bottom) = nonce_top(job.nonce);
            bottoms[k] = bottom;
            ktops.push(top);
        }
        self.aes.encrypt_blocks(&mut ktops);
        let mut offsets: Vec<Block> = ktops
            .iter()
            .zip(bottoms.iter())
            .map(|(ktop, &bottom)| offset_from_ktop(ktop, bottom))
            .collect();

        // Phase 1: every packet's full blocks through the fused whitened
        // cipher seam. The whitening masks come from one shared prefix
        // table (`pre[i] ^ Offset_0`; see `offset_prefixes`), so there
        // is no per-packet offset chain walk, and the fused seam keeps
        // the masks in registers — no separate whiten/un-whiten memory
        // passes. Whole `WIDE_RUN` groups cipher straight from the
        // plaintext into a pre-sized run of the packet's output buffer
        // (per-block `extend` costs more than the whitening arithmetic);
        // the ragged tail — and all of a small packet — pools
        // cross-packet into `gathered`, whose single cipher call fills
        // the lanes even when the batch is sixty keystrokes.
        let initial = offsets.clone();
        let max_nfull = jobs
            .iter()
            .map(|j| j.plaintext.len() / 16)
            .max()
            .unwrap_or(0);
        let pre = self.offset_prefixes(max_nfull);
        let pool_total: usize = jobs
            .iter()
            .map(|j| (j.plaintext.len() / 16) % WIDE_RUN)
            .sum();
        let mut checksums = vec![[0u8; 16]; jobs.len()];
        let mut gathered: Vec<Block> = Vec::with_capacity(pool_total);
        let mut ranges = vec![(0usize, 0usize); jobs.len()];
        let mut pool_base = vec![0usize; jobs.len()];
        for (k, job) in jobs.iter().enumerate() {
            outs[k].reserve(job.plaintext.len() + TAG_LEN);
            let init = offsets[k];
            let nfull = job.plaintext.len() / 16;
            let wide = nfull / WIDE_RUN * WIDE_RUN;
            // The checksum is offset-free: one plain XOR fold over the
            // full plaintext blocks.
            let mut checksum = checksums[k];
            for chunk in job.plaintext[..nfull * 16].chunks_exact(16) {
                let block: Block = chunk.try_into().expect("exact chunk");
                checksum = xor(&checksum, &block);
            }
            checksums[k] = checksum;
            if wide > 0 {
                let start = outs[k].len();
                outs[k].resize(start + wide * 16, 0);
                self.aes.encrypt_blocks_whitened(
                    as_blocks(&job.plaintext[..wide * 16]),
                    as_blocks_mut(&mut outs[k][start..]),
                    &pre[..wide],
                    &init,
                );
            }
            // Pool the tail (or, for a small packet, everything): block
            // indices continue where the in-place run stopped, and the
            // scatter's un-whitening resumes from the same table slots.
            pool_base[k] = wide;
            let from = gathered.len();
            gathered.resize(from + (nfull - wide), [0u8; 16]);
            for ((i, chunk), d) in job.plaintext[wide * 16..nfull * 16]
                .chunks_exact(16)
                .enumerate()
                .zip(gathered[from..].iter_mut())
            {
                let block: Block = chunk.try_into().expect("exact chunk");
                *d = xor(&block, &xor(&pre[wide + i], &init));
            }
            ranges[k] = (from, gathered.len());
            // The offset after all full blocks, read straight off the
            // table — phases 2 and 3 continue from it.
            offsets[k] = if nfull > 0 {
                xor(&init, &pre[nfull - 1])
            } else {
                init
            };
        }
        self.aes.encrypt_blocks(&mut gathered);
        for (k, _) in jobs.iter().enumerate() {
            let (from, to) = ranges[k];
            if from == to {
                continue;
            }
            let init = initial[k];
            let base = pool_base[k];
            for (i, b) in gathered[from..to].iter_mut().enumerate() {
                *b = xor(b, &xor(&pre[base + i], &init));
            }
            outs[k].extend_from_slice(gathered[from..to].as_flattened());
        }

        // Phase 2: partial-block pads (encrypt direction) in one call.
        let mut pad_jobs: Vec<usize> = Vec::new();
        let mut pads: Vec<Block> = Vec::new();
        for (k, job) in jobs.iter().enumerate() {
            if job.plaintext.len() % 16 != 0 {
                offsets[k] = xor(&offsets[k], &self.l_star);
                pad_jobs.push(k);
                pads.push(offsets[k]);
            }
        }
        self.aes.encrypt_blocks(&mut pads);
        for (&k, pad) in pad_jobs.iter().zip(pads.iter()) {
            let pt = jobs[k].plaintext;
            let rest = &pt[pt.len() / 16 * 16..];
            for (i, &p) in rest.iter().enumerate() {
                outs[k].push(p ^ pad[i]);
            }
            let mut block = [0u8; 16];
            block[..rest.len()].copy_from_slice(rest);
            block[rest.len()] = 0x80;
            checksums[k] = xor(&checksums[k], &block);
        }

        // Phase 3: every packet's tag in one call.
        let mut tags: Vec<Block> = Vec::with_capacity(jobs.len());
        for (k, _) in jobs.iter().enumerate() {
            tags.push(xor(&xor(&checksums[k], &offsets[k]), &self.l_dollar));
        }
        self.aes.encrypt_blocks(&mut tags);
        for (k, job) in jobs.iter().enumerate() {
            let tag = xor(&tags[k], &self.hash(job.ad));
            outs[k].extend_from_slice(&tag);
        }
    }

    /// Verifies and decrypts a whole batch of packets, appending each
    /// plaintext to the corresponding `outs` buffer — byte-identical
    /// results to calling [`Ocb::open_into`] per job, with all packets'
    /// AES work crossing the cipher in four multi-block calls. Verdicts
    /// are strictly per packet: a bad tag (or truncated input) restores
    /// only that packet's buffer and never affects its batch siblings.
    /// A batch of one *is* the single-packet path.
    ///
    /// # Panics
    ///
    /// Panics unless `jobs` and `outs` have the same length.
    pub fn open_many_into(
        &self,
        jobs: &[OpenJob<'_>],
        outs: &mut [Vec<u8>],
    ) -> Vec<Result<(), CryptoError>> {
        assert_eq!(jobs.len(), outs.len(), "one output buffer per job");
        if let [job] = jobs {
            return vec![self.open_into(job.nonce, job.ad, job.sealed, &mut outs[0])];
        }
        let mut results: Vec<Result<(), CryptoError>> = vec![Ok(()); jobs.len()];

        // Phase 0: every packet's Ktop in one cipher call. Truncated
        // packets are marked dead here and skip every later phase (their
        // Ktop slot is computed-but-unused, keeping the indexing flat).
        let mut bottoms = vec![0usize; jobs.len()];
        let mut ktops: Vec<Block> = Vec::with_capacity(jobs.len());
        for (k, job) in jobs.iter().enumerate() {
            if job.sealed.len() < TAG_LEN {
                results[k] = Err(CryptoError::Truncated);
            }
            let (top, bottom) = nonce_top(job.nonce);
            bottoms[k] = bottom;
            ktops.push(top);
        }
        self.aes.encrypt_blocks(&mut ktops);
        let mut offsets: Vec<Block> = ktops
            .iter()
            .zip(bottoms.iter())
            .map(|(ktop, &bottom)| offset_from_ktop(ktop, bottom))
            .collect();

        // Phase 1: every live packet's full ciphertext blocks through
        // the fused whitened cipher seam, as in seal: one shared prefix
        // table for the masks, whole `WIDE_RUN` groups straight into a
        // pre-sized run of the output buffer, the ragged tail (and all
        // of a small packet) pooled cross-packet into `gathered`. The
        // open-side checksum folds over the *plaintext*, so it runs
        // after the cipher output lands.
        let initial = offsets.clone();
        let max_nfull = jobs
            .iter()
            .zip(results.iter())
            .filter(|(_, r)| r.is_ok())
            .map(|(j, _)| (j.sealed.len() - TAG_LEN) / 16)
            .max()
            .unwrap_or(0);
        let pre = self.offset_prefixes(max_nfull);
        let pool_total: usize = jobs
            .iter()
            .zip(results.iter())
            .filter(|(_, r)| r.is_ok())
            .map(|(j, _)| ((j.sealed.len() - TAG_LEN) / 16) % WIDE_RUN)
            .sum();
        let starts: Vec<usize> = outs.iter().map(|o| o.len()).collect();
        let mut checksums = vec![[0u8; 16]; jobs.len()];
        let mut gathered: Vec<Block> = Vec::with_capacity(pool_total);
        let mut ranges = vec![(0usize, 0usize); jobs.len()];
        let mut pool_base = vec![0usize; jobs.len()];
        for (k, job) in jobs.iter().enumerate() {
            if results[k].is_err() {
                continue;
            }
            let ciphertext = &job.sealed[..job.sealed.len() - TAG_LEN];
            outs[k].reserve(ciphertext.len());
            let init = offsets[k];
            let nfull = ciphertext.len() / 16;
            let wide = nfull / WIDE_RUN * WIDE_RUN;
            if wide > 0 {
                let start = outs[k].len();
                outs[k].resize(start + wide * 16, 0);
                self.aes.decrypt_blocks_whitened(
                    as_blocks(&ciphertext[..wide * 16]),
                    as_blocks_mut(&mut outs[k][start..]),
                    &pre[..wide],
                    &init,
                );
                let mut checksum = checksums[k];
                for chunk in outs[k][start..].chunks_exact(16) {
                    let block: Block = chunk.try_into().expect("exact chunk");
                    checksum = xor(&checksum, &block);
                }
                checksums[k] = checksum;
            }
            // Pool the tail (or, for a small packet, everything).
            pool_base[k] = wide;
            let from = gathered.len();
            gathered.resize(from + (nfull - wide), [0u8; 16]);
            for ((i, chunk), d) in ciphertext[wide * 16..nfull * 16]
                .chunks_exact(16)
                .enumerate()
                .zip(gathered[from..].iter_mut())
            {
                let block: Block = chunk.try_into().expect("exact chunk");
                *d = xor(&block, &xor(&pre[wide + i], &init));
            }
            ranges[k] = (from, gathered.len());
            offsets[k] = if nfull > 0 {
                xor(&init, &pre[nfull - 1])
            } else {
                init
            };
        }
        self.aes.decrypt_blocks(&mut gathered);
        for (k, _) in jobs.iter().enumerate() {
            let (from, to) = ranges[k];
            if from == to {
                continue;
            }
            let init = initial[k];
            let base = pool_base[k];
            let mut checksum = checksums[k];
            for (i, b) in gathered[from..to].iter_mut().enumerate() {
                *b = xor(b, &xor(&pre[base + i], &init));
                checksum = xor(&checksum, b);
            }
            checksums[k] = checksum;
            outs[k].extend_from_slice(gathered[from..to].as_flattened());
        }

        // Phase 2: partial-block pads (encrypt direction, per RFC) in
        // one call, then the partial plaintext tails.
        let mut pad_jobs: Vec<usize> = Vec::new();
        let mut pads: Vec<Block> = Vec::new();
        for (k, job) in jobs.iter().enumerate() {
            if results[k].is_err() {
                continue;
            }
            let ciphertext_len = job.sealed.len() - TAG_LEN;
            if !ciphertext_len.is_multiple_of(16) {
                offsets[k] = xor(&offsets[k], &self.l_star);
                pad_jobs.push(k);
                pads.push(offsets[k]);
            }
        }
        self.aes.encrypt_blocks(&mut pads);
        for (&k, pad) in pad_jobs.iter().zip(pads.iter()) {
            let ciphertext = &jobs[k].sealed[..jobs[k].sealed.len() - TAG_LEN];
            let rest = &ciphertext[ciphertext.len() / 16 * 16..];
            let mut block = [0u8; 16];
            for (i, &c) in rest.iter().enumerate() {
                let p = c ^ pad[i];
                outs[k].push(p);
                block[i] = p;
            }
            block[rest.len()] = 0x80;
            checksums[k] = xor(&checksums[k], &block);
        }

        // Phase 3: every live packet's tag in one call, then per-packet
        // constant-time verdicts.
        let mut tag_jobs: Vec<usize> = Vec::new();
        let mut tags: Vec<Block> = Vec::new();
        for (k, _) in jobs.iter().enumerate() {
            if results[k].is_err() {
                continue;
            }
            tag_jobs.push(k);
            tags.push(xor(&xor(&checksums[k], &offsets[k]), &self.l_dollar));
        }
        self.aes.encrypt_blocks(&mut tags);
        for (&k, tag_body) in tag_jobs.iter().zip(tags.iter()) {
            let job = &jobs[k];
            let expected = xor(tag_body, &self.hash(job.ad));
            let received = &job.sealed[job.sealed.len() - TAG_LEN..];
            // Constant-time comparison: accumulate differences, decide
            // once.
            let mut diff = 0u8;
            for (a, b) in expected.iter().zip(received.iter()) {
                diff |= a ^ b;
            }
            if diff != 0 {
                outs[k].truncate(starts[k]);
                results[k] = Err(CryptoError::BadTag);
            }
        }
        results
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

    /// Key used by every RFC 7253 Appendix A sample.
    fn rfc_ocb() -> Ocb {
        let key: [u8; 16] = hex("000102030405060708090A0B0C0D0E0F").try_into().unwrap();
        Ocb::new(&key)
    }

    fn check_vector(nonce_hex: &str, ad_hex: &str, pt_hex: &str, expected_hex: &str) {
        let ocb = rfc_ocb();
        let nonce = hex(nonce_hex);
        let ad = hex(ad_hex);
        let pt = hex(pt_hex);
        let expected = hex(expected_hex);
        let sealed = ocb.seal(&nonce, &ad, &pt);
        assert_eq!(sealed, expected, "seal mismatch for nonce {nonce_hex}");
        let opened = ocb.open(&nonce, &ad, &sealed).expect("tag must verify");
        assert_eq!(opened, pt, "open mismatch for nonce {nonce_hex}");

        // The _into variants are the same algorithm: byte-identical
        // output through a reused, pre-populated buffer (append
        // semantics preserved).
        let mut buf = b"prefix".to_vec();
        ocb.seal_into(&nonce, &ad, &pt, &mut buf);
        assert_eq!(&buf[..6], b"prefix");
        assert_eq!(&buf[6..], &expected[..], "seal_into mismatch");
        let mut buf = b"pre".to_vec();
        ocb.open_into(&nonce, &ad, &sealed, &mut buf)
            .expect("tag must verify via open_into");
        assert_eq!(&buf[..3], b"pre");
        assert_eq!(&buf[3..], &pt[..], "open_into mismatch");

        // And the byte-oriented baseline cipher produces the same wire
        // bytes (the mode is cipher-agnostic; only speed differs).
        let key: [u8; 16] = hex("000102030405060708090A0B0C0D0E0F").try_into().unwrap();
        let slow: Ocb<crate::aes::baseline::Aes128> = Ocb::with_cipher(&key);
        assert_eq!(slow.seal(&nonce, &ad, &pt), expected);
        assert_eq!(slow.open(&nonce, &ad, &sealed).unwrap(), pt);
    }

    #[test]
    fn rfc7253_vector_empty() {
        check_vector(
            "BBAA99887766554433221100",
            "",
            "",
            "785407BFFFC8AD9EDCC5520AC9111EE6",
        );
    }

    #[test]
    fn rfc7253_vector_8byte_ad_and_pt() {
        check_vector(
            "BBAA99887766554433221101",
            "0001020304050607",
            "0001020304050607",
            "6820B3657B6F615A5725BDA0D3B4EB3A257C9AF1F8F03009",
        );
    }

    #[test]
    fn rfc7253_vector_ad_only() {
        check_vector(
            "BBAA99887766554433221102",
            "0001020304050607",
            "",
            "81017F8203F081277152FADE694A0A00",
        );
    }

    #[test]
    fn rfc7253_vector_pt_only() {
        check_vector(
            "BBAA99887766554433221103",
            "",
            "0001020304050607",
            "45DD69F8F5AAE72414054CD1F35D82760B2CD00D2F99BFA9",
        );
    }

    #[test]
    fn rfc7253_vector_one_full_block() {
        check_vector(
            "BBAA99887766554433221104",
            "000102030405060708090A0B0C0D0E0F",
            "000102030405060708090A0B0C0D0E0F",
            "571D535B60B277188BE5147170A9A22C3AD7A4FF3835B8C5701C1CCEC8FC3358",
        );
    }

    #[test]
    fn rfc7253_vector_full_block_ad_only() {
        check_vector(
            "BBAA99887766554433221105",
            "000102030405060708090A0B0C0D0E0F",
            "",
            "8CF761B6902EF764462AD86498CA6B97",
        );
    }

    #[test]
    fn rfc7253_vector_full_block_pt_only() {
        check_vector(
            "BBAA99887766554433221106",
            "",
            "000102030405060708090A0B0C0D0E0F",
            "5CE88EC2E0692706A915C00AEB8B2396F40E1C743F52436BDF06D8FA1ECA343D",
        );
    }

    #[test]
    fn tampered_ciphertext_is_rejected() {
        let ocb = rfc_ocb();
        let nonce = [9u8; 12];
        let mut sealed = ocb.seal(&nonce, b"", b"attack at dawn");
        sealed[3] ^= 0x01;
        assert_eq!(ocb.open(&nonce, b"", &sealed), Err(CryptoError::BadTag));
    }

    #[test]
    fn tampered_tag_is_rejected() {
        let ocb = rfc_ocb();
        let nonce = [9u8; 12];
        let mut sealed = ocb.seal(&nonce, b"", b"attack at dawn");
        let last = sealed.len() - 1;
        sealed[last] ^= 0x80;
        assert_eq!(ocb.open(&nonce, b"", &sealed), Err(CryptoError::BadTag));
    }

    #[test]
    fn wrong_ad_is_rejected() {
        let ocb = rfc_ocb();
        let nonce = [9u8; 12];
        let sealed = ocb.seal(&nonce, b"right", b"payload");
        assert_eq!(
            ocb.open(&nonce, b"wrong", &sealed),
            Err(CryptoError::BadTag)
        );
    }

    #[test]
    fn wrong_nonce_is_rejected() {
        let ocb = rfc_ocb();
        let sealed = ocb.seal(&[1u8; 12], b"", b"payload");
        assert_eq!(ocb.open(&[2u8; 12], b"", &sealed), Err(CryptoError::BadTag));
    }

    #[test]
    fn truncated_input_is_rejected() {
        let ocb = rfc_ocb();
        assert_eq!(
            ocb.open(&[1u8; 12], b"", b"short"),
            Err(CryptoError::Truncated)
        );
    }

    #[test]
    fn open_into_releases_nothing_on_failure() {
        // A tampered message must leave the caller's buffer exactly as it
        // was — not even a prefix of the bogus plaintext appended.
        let ocb = rfc_ocb();
        let nonce = [9u8; 12];
        let mut sealed = ocb.seal(&nonce, b"", b"twenty-nine bytes of payload!");
        sealed[5] ^= 0x10;
        let mut out = b"kept".to_vec();
        assert_eq!(
            ocb.open_into(&nonce, b"", &sealed, &mut out),
            Err(CryptoError::BadTag)
        );
        assert_eq!(out, b"kept");
    }

    #[test]
    fn double_has_expected_algebra() {
        // double(0) == 0 and doubling is linear over XOR.
        assert_eq!(double(&[0u8; 16]), [0u8; 16]);
        let a = [0x42u8; 16];
        let b = [0x17u8; 16];
        assert_eq!(double(&xor(&a, &b)), xor(&double(&a), &double(&b)));
    }

    #[test]
    fn seal_length_is_plaintext_plus_tag() {
        let ocb = rfc_ocb();
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 100, 1400] {
            let pt = vec![0xabu8; len];
            assert_eq!(ocb.seal(&[5u8; 12], b"", &pt).len(), len + TAG_LEN);
        }
    }

    #[test]
    fn all_partial_block_lengths_round_trip() {
        let ocb = rfc_ocb();
        for len in 0..64 {
            let pt: Vec<u8> = (0..len as u8).collect();
            let sealed = ocb.seal(&[7u8; 12], b"ad", &pt);
            assert_eq!(ocb.open(&[7u8; 12], b"ad", &sealed).unwrap(), pt);
        }
    }

    /// All seven RFC 7253 Appendix A vectors as ONE batch through
    /// `seal_many_into` and `open_many_into` — the KATs routed through
    /// the batch path, plus append semantics on reused buffers.
    #[test]
    fn rfc7253_vectors_through_the_batch_path() {
        let vectors: [(&str, &str, &str, &str); 7] = [
            (
                "BBAA99887766554433221100",
                "",
                "",
                "785407BFFFC8AD9EDCC5520AC9111EE6",
            ),
            (
                "BBAA99887766554433221101",
                "0001020304050607",
                "0001020304050607",
                "6820B3657B6F615A5725BDA0D3B4EB3A257C9AF1F8F03009",
            ),
            (
                "BBAA99887766554433221102",
                "0001020304050607",
                "",
                "81017F8203F081277152FADE694A0A00",
            ),
            (
                "BBAA99887766554433221103",
                "",
                "0001020304050607",
                "45DD69F8F5AAE72414054CD1F35D82760B2CD00D2F99BFA9",
            ),
            (
                "BBAA99887766554433221104",
                "000102030405060708090A0B0C0D0E0F",
                "000102030405060708090A0B0C0D0E0F",
                "571D535B60B277188BE5147170A9A22C3AD7A4FF3835B8C5701C1CCEC8FC3358",
            ),
            (
                "BBAA99887766554433221105",
                "000102030405060708090A0B0C0D0E0F",
                "",
                "8CF761B6902EF764462AD86498CA6B97",
            ),
            (
                "BBAA99887766554433221106",
                "",
                "000102030405060708090A0B0C0D0E0F",
                "5CE88EC2E0692706A915C00AEB8B2396F40E1C743F52436BDF06D8FA1ECA343D",
            ),
        ];
        let ocb = rfc_ocb();
        let nonces: Vec<Vec<u8>> = vectors.iter().map(|v| hex(v.0)).collect();
        let ads: Vec<Vec<u8>> = vectors.iter().map(|v| hex(v.1)).collect();
        let pts: Vec<Vec<u8>> = vectors.iter().map(|v| hex(v.2)).collect();
        let expected: Vec<Vec<u8>> = vectors.iter().map(|v| hex(v.3)).collect();

        let jobs: Vec<SealJob> = (0..vectors.len())
            .map(|k| SealJob {
                nonce: &nonces[k],
                ad: &ads[k],
                plaintext: &pts[k],
            })
            .collect();
        let mut outs: Vec<Vec<u8>> = (0..vectors.len()).map(|k| vec![k as u8]).collect();
        ocb.seal_many_into(&jobs, &mut outs);
        for (k, out) in outs.iter().enumerate() {
            assert_eq!(out[0], k as u8, "append semantics preserved");
            assert_eq!(&out[1..], &expected[k][..], "batch seal vector {k}");
        }

        let open_jobs: Vec<OpenJob> = (0..vectors.len())
            .map(|k| OpenJob {
                nonce: &nonces[k],
                ad: &ads[k],
                sealed: &expected[k],
            })
            .collect();
        let mut opened: Vec<Vec<u8>> = (0..vectors.len()).map(|k| vec![k as u8]).collect();
        let verdicts = ocb.open_many_into(&open_jobs, &mut opened);
        for (k, v) in verdicts.iter().enumerate() {
            assert_eq!(*v, Ok(()), "batch open vector {k}");
            assert_eq!(opened[k][0], k as u8);
            assert_eq!(&opened[k][1..], &pts[k][..], "batch open plaintext {k}");
        }
    }

    /// The batch paths are byte-identical to a per-packet loop for every
    /// backend, across a grid of batch sizes and (deliberately ragged)
    /// packet lengths.
    #[test]
    fn batch_paths_match_per_packet_loop_across_backends() {
        fn check<C: BlockCipher>() {
            let key: [u8; 16] = [0x39; 16];
            let ocb: Ocb<C> = Ocb::with_cipher(&key);
            for batch in [0usize, 1, 2, 3, 5, 8, 13] {
                // Ragged lengths: empty, partial, exact, multi-block.
                let pts: Vec<Vec<u8>> = (0..batch)
                    .map(|k| {
                        let len = [0usize, 7, 16, 33, 48, 120, 1400][k % 7];
                        (0..len)
                            .map(|i| (i as u8).wrapping_mul(k as u8 + 1))
                            .collect()
                    })
                    .collect();
                let nonces: Vec<[u8; 12]> = (0..batch)
                    .map(|k| {
                        let mut n = [0u8; 12];
                        n[11] = k as u8;
                        n[0] = 0xbb;
                        n
                    })
                    .collect();
                let ads: Vec<Vec<u8>> = (0..batch).map(|k| vec![k as u8; k % 3]).collect();

                // Reference: one packet at a time.
                let expected: Vec<Vec<u8>> = (0..batch)
                    .map(|k| ocb.seal(&nonces[k], &ads[k], &pts[k]))
                    .collect();

                let jobs: Vec<SealJob> = (0..batch)
                    .map(|k| SealJob {
                        nonce: &nonces[k],
                        ad: &ads[k],
                        plaintext: &pts[k],
                    })
                    .collect();
                let mut outs: Vec<Vec<u8>> = vec![Vec::new(); batch];
                ocb.seal_many_into(&jobs, &mut outs);
                assert_eq!(outs, expected, "batch={batch} seal");

                let open_jobs: Vec<OpenJob> = (0..batch)
                    .map(|k| OpenJob {
                        nonce: &nonces[k],
                        ad: &ads[k],
                        sealed: &expected[k],
                    })
                    .collect();
                let mut opened: Vec<Vec<u8>> = vec![Vec::new(); batch];
                let verdicts = ocb.open_many_into(&open_jobs, &mut opened);
                assert!(verdicts.iter().all(|v| v.is_ok()), "batch={batch} open");
                assert_eq!(opened, pts, "batch={batch} open plaintext");
            }
        }
        check::<crate::aes::Aes128>();
        check::<crate::aes::ct::Aes128>();
        check::<crate::aes::baseline::Aes128>();
    }

    /// A bad tag (or truncated packet) inside a batch is rejected alone:
    /// siblings decrypt to the right plaintext, the bad packet's buffer
    /// is restored, and nothing leaks.
    #[test]
    fn batch_open_rejects_bad_packets_without_poisoning_siblings() {
        let ocb = rfc_ocb();
        let pts: Vec<Vec<u8>> = (0..5).map(|k| (0..40 + k as u8 * 3).collect()).collect();
        let nonces: Vec<[u8; 12]> = (0..5)
            .map(|k| {
                let mut n = [3u8; 12];
                n[11] = k as u8;
                n
            })
            .collect();
        let mut sealed: Vec<Vec<u8>> = (0..5)
            .map(|k| ocb.seal(&nonces[k], b"ad", &pts[k]))
            .collect();
        // Packet 1: flipped tag bit. Packet 3: truncated below TAG_LEN.
        let last = sealed[1].len() - 1;
        sealed[1][last] ^= 0x01;
        sealed[3].truncate(TAG_LEN - 1);

        let jobs: Vec<OpenJob> = (0..5)
            .map(|k| OpenJob {
                nonce: &nonces[k],
                ad: b"ad",
                sealed: &sealed[k],
            })
            .collect();
        let mut outs: Vec<Vec<u8>> = (0..5).map(|_| b"kept".to_vec()).collect();
        let verdicts = ocb.open_many_into(&jobs, &mut outs);
        assert_eq!(verdicts[0], Ok(()));
        assert_eq!(verdicts[1], Err(CryptoError::BadTag));
        assert_eq!(verdicts[2], Ok(()));
        assert_eq!(verdicts[3], Err(CryptoError::Truncated));
        assert_eq!(verdicts[4], Ok(()));
        for (k, out) in outs.iter().enumerate() {
            if verdicts[k].is_ok() {
                assert_eq!(&out[..4], b"kept");
                assert_eq!(&out[4..], &pts[k][..], "sibling {k} must decrypt");
            } else {
                assert_eq!(out, b"kept", "bad packet {k} must release nothing");
            }
        }
    }
}
