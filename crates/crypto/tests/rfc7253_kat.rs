//! Known-answer test pinning the public cipher API to its specification,
//! from outside the crate:
//!
//! * AES-128 against the FIPS 197 Appendix C.1 example — the dispatched
//!   cipher (hardware or constant-time bitsliced) and the bitsliced tier.
//!
//! The RFC 7253 Appendix A sample vectors and the RFC's iterative
//! all-lengths self-test are unit tests in `ocb::tests`, and the same C.1
//! vector is `aes::tests::fips197_appendix_c_vector`: both also pin the
//! byte-oriented `baseline` reference, which exists only in the crate's
//! test build.

use mosh_crypto::aes::{ct, Aes128, BlockCipher};

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
}
