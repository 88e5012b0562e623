//! Adversarial coverage of the OpenRTB-lite codec: every object round-trips
//! bit-exactly, every truncation and bit flip yields a structured
//! [`DecodeError`] (never a panic), and newer-version frames decode through
//! the forward-compatibility rule. Mirrors the frame-decode fuzzing the
//! fault-tolerance PR established for the client protocol.

use bytes::BufMut;
use privlocad_openrtb::{
    fnv1a32, Bid, BidRequest, BidResponse, DecodeError, DeviceId, FrameRef, Geo, SeatBid,
    CHECKSUM_LEN, HEADER_LEN, KIND_BID_REQUEST, REQUEST_BODY_LEN, WIRE_VERSION,
};
use proptest::prelude::*;

fn request(device: u64, seq: u64, x: f64, y: f64) -> BidRequest {
    BidRequest::new(DeviceId::new(device), seq, Geo { x, y })
}

fn response(id: u64, win: bool, seat: u64, price: u64, adm: u64) -> BidResponse {
    if win {
        BidResponse::win(id, SeatBid { seat, bid: Bid { imp: 1, price_micros: price, adm } })
    } else {
        BidResponse::no_bid(id)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_500))]

    #[test]
    fn requests_round_trip(
        device in any::<u64>(),
        seq in any::<u64>(),
        x in -1e6f64..1e6,
        y in -1e6f64..1e6,
    ) {
        let req = request(device, seq, x, y);
        let wire = req.encode();
        let (decoded, consumed) = BidRequest::decode_slice(&wire).expect("round-trip decode");
        prop_assert_eq!(decoded, req);
        prop_assert_eq!(consumed, wire.len());
    }

    #[test]
    fn responses_round_trip(
        id in any::<u64>(),
        win in any::<bool>(),
        seat in any::<u64>(),
        price in any::<u64>(),
        adm in any::<u64>(),
    ) {
        let resp = response(id, win, seat, price, adm);
        let wire = resp.encode();
        let (decoded, consumed) = BidResponse::decode_slice(&wire).expect("round-trip decode");
        prop_assert_eq!(decoded, resp);
        prop_assert_eq!(consumed, wire.len());
    }

    #[test]
    fn truncations_error_and_never_panic(
        device in any::<u64>(),
        seq in any::<u64>(),
        win in any::<bool>(),
        cut in 0usize..64,
    ) {
        let req = request(device, seq, 1.0, 2.0).encode();
        let cut_req = cut % req.len();
        prop_assert!(matches!(
            BidRequest::decode_slice(&req[..cut_req]),
            Err(DecodeError::Truncated { .. })
        ));
        let resp = response(device, win, 1, 2, 3).encode();
        let cut_resp = cut % resp.len();
        prop_assert!(matches!(
            BidResponse::decode_slice(&resp[..cut_resp]),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn bit_flips_never_panic(
        device in any::<u64>(),
        seq in any::<u64>(),
        win in any::<bool>(),
        byte in 0usize..64,
        bit in 0u32..8,
    ) {
        let wire = if win {
            response(device, true, 4, 5, 6).encode()
        } else {
            request(device, seq, 3.0, 4.0).encode()
        };
        let mut raw = wire.to_vec();
        let byte = byte % raw.len();
        raw[byte] ^= 1 << bit;
        // Either decoder must return a structured error (or, if the flip
        // landed in the float payload, possibly a clean different decode) —
        // never panic.
        let _ = BidRequest::decode_slice(&raw);
        let _ = BidResponse::decode_slice(&raw);
    }

    #[test]
    fn random_bytes_never_panic_the_frame_decoder(
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u64>(),
        len in 0usize..24,
    ) {
        let mut raw = Vec::new();
        raw.extend_from_slice(&a.to_be_bytes());
        raw.extend_from_slice(&b.to_be_bytes());
        raw.extend_from_slice(&c.to_be_bytes());
        raw.truncate(len);
        let _ = FrameRef::decode(&raw);
        let _ = BidRequest::decode_slice(&raw);
        let _ = BidResponse::decode_slice(&raw);
    }

    #[test]
    fn newer_versions_decode_their_known_prefix(
        device in any::<u64>(),
        seq in any::<u64>(),
        version in 2u8..=255,
        extension in 0usize..16,
    ) {
        // Forward compatibility: a frame stamped with any newer version and
        // carrying trailing extension bytes decodes to the version-1 object.
        let req = request(device, seq, 5.0, 6.0);
        let v1 = req.encode();
        let mut raw = Vec::new();
        raw.put_u8(version);
        raw.put_u8(KIND_BID_REQUEST);
        raw.put_u16((REQUEST_BODY_LEN + extension) as u16);
        raw.extend_from_slice(&v1[HEADER_LEN..HEADER_LEN + REQUEST_BODY_LEN]);
        raw.extend(std::iter::repeat_n(0x5A, extension));
        let checksum = fnv1a32(&raw);
        raw.put_u32(checksum);
        let total = raw.len();
        let (decoded, consumed) =
            BidRequest::decode_slice(&raw).expect("forward-compat decode");
        prop_assert_eq!(decoded, req);
        prop_assert_eq!(consumed, total);
        prop_assert_eq!(total, HEADER_LEN + REQUEST_BODY_LEN + extension + CHECKSUM_LEN);
    }

    #[test]
    fn version_below_the_floor_is_rejected(
        device in any::<u64>(),
        seq in any::<u64>(),
    ) {
        // Only version 0 is below the current floor of 1; keep the
        // construction general so a future bump keeps the test honest.
        for version in 0..WIRE_VERSION {
            let mut raw = request(device, seq, 1.0, 1.0).encode().to_vec();
            raw[0] = version;
            let checksum_at = raw.len() - CHECKSUM_LEN;
            let fixed = fnv1a32(&raw[..checksum_at]);
            raw[checksum_at..].copy_from_slice(&fixed.to_be_bytes());
            prop_assert_eq!(
                BidRequest::decode_slice(&raw),
                Err(DecodeError::UnsupportedVersion(version))
            );
        }
    }
}
