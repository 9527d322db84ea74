//! Property-based tests for the crypto stack.

use mosh_crypto::aes::Aes128;
use mosh_crypto::base64;
use mosh_crypto::ocb::Ocb;
use mosh_crypto::session::{Direction, Session};
use mosh_crypto::{Base64Key, CryptoError};
use proptest::prelude::*;

proptest! {
    #[test]
    fn aes_decrypt_inverts_encrypt(key in any::<[u8; 16]>(), block in any::<[u8; 16]>()) {
        let aes = Aes128::new(&key);
        prop_assert_eq!(aes.decrypt_block(&aes.encrypt_block(&block)), block);
    }

    #[test]
    fn aes_is_a_permutation(key in any::<[u8; 16]>(), a in any::<[u8; 16]>(), b in any::<[u8; 16]>()) {
        // Distinct plaintexts encrypt to distinct ciphertexts.
        prop_assume!(a != b);
        let aes = Aes128::new(&key);
        prop_assert_ne!(aes.encrypt_block(&a), aes.encrypt_block(&b));
    }

    #[test]
    fn ocb_round_trips(
        key in any::<[u8; 16]>(),
        nonce in any::<[u8; 12]>(),
        ad in proptest::collection::vec(any::<u8>(), 0..128),
        pt in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let ocb = Ocb::new(&key);
        let sealed = ocb.seal(&nonce, &ad, &pt);
        prop_assert_eq!(ocb.open(&nonce, &ad, &sealed).unwrap(), pt);
    }

    #[test]
    fn ocb_rejects_any_single_bit_flip(
        key in any::<[u8; 16]>(),
        nonce in any::<[u8; 12]>(),
        pt in proptest::collection::vec(any::<u8>(), 0..64),
        byte_idx in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let ocb = Ocb::new(&key);
        let mut sealed = ocb.seal(&nonce, b"", &pt);
        let idx = byte_idx.index(sealed.len());
        sealed[idx] ^= 1 << bit;
        prop_assert_eq!(ocb.open(&nonce, b"", &sealed), Err(CryptoError::BadTag));
    }

    #[test]
    fn ocb_into_variants_match_allocating_variants(
        key in any::<[u8; 16]>(),
        nonce in any::<[u8; 12]>(),
        ad in proptest::collection::vec(any::<u8>(), 0..48),
        len in 0usize..64,
        fill in any::<u8>(),
    ) {
        // Every payload length 0..64 (both partial- and full-block tails):
        // seal_into/open_into round-trip byte-for-byte equal to seal/open,
        // through a reused buffer.
        let ocb = Ocb::new(&key);
        let pt: Vec<u8> = (0..len as u8).map(|i| i ^ fill).collect();
        let sealed = ocb.seal(&nonce, &ad, &pt);
        let mut buf = Vec::new();
        ocb.seal_into(&nonce, &ad, &pt, &mut buf);
        prop_assert_eq!(&buf, &sealed, "seal_into != seal");
        let opened = ocb.open(&nonce, &ad, &sealed).unwrap();
        buf.clear();
        ocb.open_into(&nonce, &ad, &sealed, &mut buf).unwrap();
        prop_assert_eq!(&buf, &opened, "open_into != open");
        prop_assert_eq!(&buf, &pt);
    }

    #[test]
    fn base64_round_trips(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        prop_assert_eq!(base64::decode(&base64::encode(&data)).unwrap(), data);
    }

    #[test]
    fn session_round_trips_any_payload(
        key in any::<[u8; 16]>(),
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..256), 1..8),
    ) {
        let mut client = Session::new(Base64Key::from_bytes(key), Direction::ToServer);
        let server = Session::new(Base64Key::from_bytes(key), Direction::ToClient);
        for (i, payload) in payloads.iter().enumerate() {
            let wire = client.encrypt(payload);
            let msg = server.decrypt(&wire).unwrap();
            prop_assert_eq!(msg.seq, i as u64);
            prop_assert_eq!(&msg.payload, payload);
        }
    }

    #[test]
    fn session_never_accepts_reflected_packets(
        key in any::<[u8; 16]>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut client = Session::new(Base64Key::from_bytes(key), Direction::ToServer);
        let wire = client.encrypt(&payload);
        prop_assert!(client.decrypt(&wire).is_err());
    }

    #[test]
    fn key_string_round_trips(key in any::<[u8; 16]>()) {
        let k = Base64Key::from_bytes(key);
        let parsed: Base64Key = k.to_string().parse().unwrap();
        prop_assert_eq!(parsed.as_bytes(), k.as_bytes());
    }
}
