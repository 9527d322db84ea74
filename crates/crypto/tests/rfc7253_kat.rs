//! Known-answer tests pinning the cipher stack to its specifications.
//!
//! Round-trip properties (see `proptests.rs`) can pass with a wrong-but-
//! self-consistent cipher; these golden vectors cannot:
//!
//! * AES-128 against the FIPS 197 Appendix C.1 example — the dispatched
//!   cipher (hardware or constant-time bitsliced) and the byte-oriented
//!   `baseline` reference.
//! * AES-128-OCB-TAGLEN128 against every RFC 7253 Appendix A sample
//!   vector, plus the RFC's iterative all-lengths self-test, over the
//!   dispatched cipher, the constant-time bitsliced tier and the
//!   `baseline` reference. The allocating `seal`/`open` are thin wrappers
//!   over the buffer-reusing `seal_into`/`open_into`, and the vectors pin
//!   both shapes.

use mosh_crypto::aes::{baseline, ct, Aes128, BlockCipher};
use mosh_crypto::ocb::Ocb;

fn unhex(s: &str) -> Vec<u8> {
    assert!(s.len().is_multiple_of(2), "odd hex length: {s:?}");
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("valid hex"))
        .collect()
}

#[test]
fn aes128_fips197_appendix_c1() {
    let key: [u8; 16] = unhex("000102030405060708090a0b0c0d0e0f")
        .try_into()
        .unwrap();
    let pt: [u8; 16] = unhex("00112233445566778899aabbccddeeff")
        .try_into()
        .unwrap();
    let ct: [u8; 16] = unhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        .try_into()
        .unwrap();
    let aes = Aes128::new(&key);
    assert_eq!(aes.encrypt_block(&pt), ct);
    assert_eq!(aes.decrypt_block(&ct), pt);
    let sliced = ct::Aes128::new(&key);
    assert_eq!(sliced.encrypt_block(&pt), ct);
    assert_eq!(sliced.decrypt_block(&ct), pt);
    let slow = baseline::Aes128::new(&key);
    assert_eq!(slow.encrypt_block(&pt), ct);
    assert_eq!(slow.decrypt_block(&ct), pt);
}

/// The sixteen AES-128-OCB-TAGLEN128 sample vectors from RFC 7253
/// Appendix A, all under key 000102030405060708090A0B0C0D0E0F.
/// Each row is (nonce, associated data, plaintext, ciphertext||tag).
const RFC7253_VECTORS: &[(&str, &str, &str, &str)] = &[
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
    (
        "BBAA99887766554433221107",
        "000102030405060708090A0B0C0D0E0F1011121314151617",
        "000102030405060708090A0B0C0D0E0F1011121314151617",
        "1CA2207308C87C010756104D8840CE1952F09673A448A122C92C62241051F57356D7F3C90BB0E07F",
    ),
    (
        "BBAA99887766554433221108",
        "000102030405060708090A0B0C0D0E0F1011121314151617",
        "",
        "6DC225A071FC1B9F7C69F93B0F1E10DE",
    ),
    (
        "BBAA99887766554433221109",
        "",
        "000102030405060708090A0B0C0D0E0F1011121314151617",
        "221BD0DE7FA6FE993ECCD769460A0AF2D6CDED0C395B1C3CE725F32494B9F914D85C0B1EB38357FF",
    ),
    (
        "BBAA9988776655443322110A",
        "000102030405060708090A0B0C0D0E0F101112131415161718191A1B1C1D1E1F",
        "000102030405060708090A0B0C0D0E0F101112131415161718191A1B1C1D1E1F",
        "BD6F6C496201C69296C11EFD138A467ABD3C707924B964DEAFFC40319AF5A48540FBBA186C5553C68AD9F592A79A4240",
    ),
    (
        "BBAA9988776655443322110B",
        "000102030405060708090A0B0C0D0E0F101112131415161718191A1B1C1D1E1F",
        "",
        "FE80690BEE8A485D11F32965BC9D2A32",
    ),
    (
        "BBAA9988776655443322110C",
        "",
        "000102030405060708090A0B0C0D0E0F101112131415161718191A1B1C1D1E1F",
        "2942BFC773BDA23CABC6ACFD9BFD5835BD300F0973792EF46040C53F1432BCDFB5E1DDE3BC18A5F840B52E653444D5DF",
    ),
    (
        "BBAA9988776655443322110D",
        "000102030405060708090A0B0C0D0E0F101112131415161718191A1B1C1D1E1F2021222324252627",
        "000102030405060708090A0B0C0D0E0F101112131415161718191A1B1C1D1E1F2021222324252627",
        "D5CA91748410C1751FF8A2F618255B68A0A12E093FF454606E59F9C1D0DDC54B65E8628E568BAD7AED07BA06A4A69483A7035490C5769E60",
    ),
    (
        "BBAA9988776655443322110E",
        "000102030405060708090A0B0C0D0E0F101112131415161718191A1B1C1D1E1F2021222324252627",
        "",
        "C5CD9D1850C141E358649994EE701B68",
    ),
    (
        "BBAA9988776655443322110F",
        "",
        "000102030405060708090A0B0C0D0E0F101112131415161718191A1B1C1D1E1F2021222324252627",
        "4412923493C57D5DE0D700F753CCE0D1D2D95060122E9F15A5DDBFC5787E50B5CC55EE507BCB084E479AD363AC366B95A98CA5F3000B1479",
    ),
];

#[test]
fn ocb_rfc7253_sample_vectors_seal() {
    let key: [u8; 16] = unhex("000102030405060708090A0B0C0D0E0F")
        .try_into()
        .unwrap();
    let ocb = Ocb::new(&key);
    for (nonce, ad, pt, expected) in RFC7253_VECTORS {
        let sealed = ocb.seal(&unhex(nonce), &unhex(ad), &unhex(pt));
        assert_eq!(sealed, unhex(expected), "seal mismatch for nonce {nonce}");
    }
}

#[test]
fn ocb_rfc7253_sample_vectors_open() {
    let key: [u8; 16] = unhex("000102030405060708090A0B0C0D0E0F")
        .try_into()
        .unwrap();
    let ocb = Ocb::new(&key);
    for (nonce, ad, pt, sealed) in RFC7253_VECTORS {
        let opened = ocb
            .open(&unhex(nonce), &unhex(ad), &unhex(sealed))
            .unwrap_or_else(|e| panic!("open failed for nonce {nonce}: {e:?}"));
        assert_eq!(opened, unhex(pt), "open mismatch for nonce {nonce}");

        // Every vector also authenticates: flipping the last tag bit fails.
        let mut tampered = unhex(sealed);
        *tampered.last_mut().unwrap() ^= 1;
        assert!(
            ocb.open(&unhex(nonce), &unhex(ad), &tampered).is_err(),
            "tampered tag accepted for nonce {nonce}"
        );
    }
}

#[test]
fn ocb_rfc7253_sample_vectors_into_variants_and_baseline_cipher() {
    let key: [u8; 16] = unhex("000102030405060708090A0B0C0D0E0F")
        .try_into()
        .unwrap();
    let ocb = Ocb::new(&key);
    let sliced: Ocb<ct::Aes128> = Ocb::with_cipher(&key);
    let slow: Ocb<baseline::Aes128> = Ocb::with_cipher(&key);
    let mut sealed = Vec::new();
    let mut opened = Vec::new();
    for (nonce, ad, pt, expected) in RFC7253_VECTORS {
        // The buffer-reusing hot-path variants hit every golden vector...
        sealed.clear();
        ocb.seal_into(&unhex(nonce), &unhex(ad), &unhex(pt), &mut sealed);
        assert_eq!(
            sealed,
            unhex(expected),
            "seal_into mismatch for nonce {nonce}"
        );
        opened.clear();
        ocb.open_into(&unhex(nonce), &unhex(ad), &sealed, &mut opened)
            .unwrap_or_else(|e| panic!("open_into failed for nonce {nonce}: {e:?}"));
        assert_eq!(opened, unhex(pt), "open_into mismatch for nonce {nonce}");

        // ...and so does OCB over the bitsliced tier and the
        // byte-oriented baseline cipher.
        let (n, a, p) = (unhex(nonce), unhex(ad), unhex(pt));
        for (tier, resealed, reopened) in [
            (
                "bitsliced",
                sliced.seal(&n, &a, &p),
                sliced.open(&n, &a, &sealed),
            ),
            (
                "baseline",
                slow.seal(&n, &a, &p),
                slow.open(&n, &a, &sealed),
            ),
        ] {
            assert_eq!(
                resealed,
                unhex(expected),
                "{tier} seal mismatch for nonce {nonce}"
            );
            assert_eq!(
                reopened.unwrap(),
                p,
                "{tier} open mismatch for nonce {nonce}"
            );
        }
    }
}

/// RFC 7253 Appendix A iterative self-test: encrypts messages of every
/// length 0..128 bytes (as plaintext and as associated data), then checks
/// the single 16-byte digest the RFC publishes for
/// AES-128-OCB-TAGLEN128 — over every cipher tier.
#[test]
fn ocb_rfc7253_iterative_all_lengths() {
    fn digest<C: BlockCipher>() -> Vec<u8> {
        // K = zeros(KEYLEN - 8) || num2str(TAGLEN, 8)
        let mut key = [0u8; 16];
        key[15] = 128;
        let ocb: Ocb<C> = Ocb::with_cipher(&key);

        // 96-bit big-endian counter nonce.
        let nonce = |n: u64| -> [u8; 12] {
            let mut out = [0u8; 12];
            out[4..].copy_from_slice(&n.to_be_bytes());
            out
        };

        let mut c = Vec::new();
        for i in 0..128u64 {
            let s = vec![0u8; i as usize];
            c.extend_from_slice(&ocb.seal(&nonce(3 * i + 1), &s, &s));
            c.extend_from_slice(&ocb.seal(&nonce(3 * i + 2), &[], &s));
            c.extend_from_slice(&ocb.seal(&nonce(3 * i + 3), &s, &[]));
        }
        ocb.seal(&nonce(385), &c, &[])
    }
    let expected = unhex("67E944D23256C5E0B6C61FA22FDF1EA2");
    assert_eq!(digest::<Aes128>(), expected, "dispatched");
    assert_eq!(digest::<ct::Aes128>(), expected, "bitsliced");
    assert_eq!(digest::<baseline::Aes128>(), expected, "baseline");
}
