//! Adversarial fuzz of the hardened wire decoders: random truncation,
//! length-prefix lies, and bit flips must always yield a structured
//! `FrameError` (or a clean decode of a different valid frame), never a
//! panic — a malformed radio frame must cost the sender a strike, not the
//! edge worker its life. A checkpoint image, truncated or flipped, must be
//! refused (or restored) alike by both restore paths.

use privlocad::protocol::{deframe, frame, ClientRequest, EdgeResponse, MAX_FRAME_LEN};
use privlocad::recovery::DeviceSnapshot;
use privlocad::{EdgeDevice, SystemConfig};
use privlocad_geo::Point;
use privlocad_mobility::UserId;
use privlocad_openrtb::fnv1a64;
use proptest::prelude::*;

fn request(kind: usize, user: u32, x: f64, y: f64, ts: i64) -> ClientRequest {
    match kind {
        0 => ClientRequest::CheckIn {
            user: UserId::new(user),
            location: Point::new(x, y),
            timestamp: ts,
        },
        1 => ClientRequest::RequestLocation { user: UserId::new(user), location: Point::new(x, y) },
        2 => ClientRequest::FinalizeWindow { user: UserId::new(user) },
        _ => ClientRequest::Shutdown,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_500))]

    #[test]
    fn truncated_frames_error_and_never_panic(
        kind in 0usize..4,
        user in any::<u32>(),
        x in -1e6f64..1e6,
        y in -1e6f64..1e6,
        ts in 0i64..1_000_000,
        cut in 0usize..64,
    ) {
        let encoded = request(kind, user, x, y, ts).encode();
        // Every strict prefix must fail: the layouts are fixed-size and the
        // decoder rejects both missing and trailing bytes.
        let cut = cut % encoded.len();
        prop_assert!(ClientRequest::decode(&encoded[..cut]).is_err());
        // The framed stream decoder agrees on its own truncations.
        let framed = frame(&encoded);
        let cut = cut % framed.len();
        prop_assert!(ClientRequest::decode_framed(&framed[..cut]).is_err());
    }

    #[test]
    fn bit_flips_never_panic_and_reencode_faithfully(
        kind in 0usize..4,
        user in any::<u32>(),
        x in -1e6f64..1e6,
        y in -1e6f64..1e6,
        ts in 0i64..1_000_000,
        byte in 0usize..32,
        bit in 0u8..8,
    ) {
        let mut bytes = request(kind, user, x, y, ts).encode().to_vec();
        let byte = byte % bytes.len();
        bytes[byte] ^= 1 << bit;
        // A flipped bit either breaks the frame (structured error) or
        // lands on another valid frame — which must re-encode to exactly
        // the corrupted bytes (the codec is a bijection on valid frames).
        if let Ok(req) = ClientRequest::decode(&bytes) {
            prop_assert_eq!(req.encode().to_vec(), bytes);
        }
    }

    #[test]
    fn lying_length_prefixes_error_and_never_panic(
        declared in any::<u16>(),
        body in proptest::collection::vec(any::<u8>(), 0..80),
    ) {
        // A hand-forged length prefix over arbitrary body bytes: deframe
        // must bound-check the declared length against both the buffer and
        // the protocol maximum.
        let mut stream = (declared as usize).to_be_bytes()[6..].to_vec();
        stream.extend_from_slice(&body);
        match deframe(&stream) {
            Ok((frame_body, rest)) => {
                prop_assert_eq!(frame_body.len(), declared as usize);
                prop_assert!(frame_body.len() <= MAX_FRAME_LEN);
                prop_assert_eq!(frame_body.len() + rest.len(), body.len());
            }
            Err(_) => {
                prop_assert!(declared as usize > body.len().min(MAX_FRAME_LEN));
            }
        }
        // And the typed stream decoders stay total on the same soup.
        let _ = ClientRequest::decode_framed(&stream);
        let _ = EdgeResponse::decode_framed(&stream);
    }

    #[test]
    fn arbitrary_byte_soup_never_panics_any_decoder(
        bytes in proptest::collection::vec(any::<u8>(), 0..160),
    ) {
        let _ = ClientRequest::decode(&bytes);
        let _ = EdgeResponse::decode(&bytes);
        let _ = ClientRequest::decode_framed(&bytes);
        let _ = EdgeResponse::decode_framed(&bytes);
        let _ = deframe(&bytes);
        // The recovery log decoder is part of the same trust boundary: a
        // corrupt persisted snapshot must error, never poison a device.
        prop_assert!(DeviceSnapshot::decode(&bytes).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    #[test]
    fn valid_framed_streams_round_trip(
        kinds in proptest::collection::vec(0usize..4, 1..12),
        user in any::<u32>(),
        x in -1e6f64..1e6,
        y in -1e6f64..1e6,
        ts in 0i64..1_000_000,
    ) {
        let requests: Vec<ClientRequest> =
            kinds.iter().map(|&k| request(k, user, x, y, ts)).collect();
        let mut stream = Vec::new();
        for r in &requests {
            stream.extend_from_slice(&frame(&r.encode()));
        }
        let mut rest: &[u8] = &stream;
        let mut decoded = Vec::new();
        while !rest.is_empty() {
            let (req, tail) = ClientRequest::decode_framed(rest).unwrap();
            decoded.push(req);
            rest = tail;
        }
        prop_assert_eq!(decoded, requests);
    }
}

/// A small checkpoint image touching every section: a settled user (a
/// candidate set, a posterior table, a served stream position) with an
/// open window, and a user whose first window is still open.
fn checkpoint_image(config: SystemConfig) -> Vec<u8> {
    let mut edge = EdgeDevice::new(config, 3);
    let (settled, fresh) = (UserId::new(0), UserId::new(1));
    let home = Point::new(1_000.0, -2_000.0);
    for _ in 0..40 {
        edge.report_checkin(settled, home);
    }
    edge.finalize_window(settled);
    edge.reported_location(settled, home);
    edge.reported_location(settled, Point::new(50_000.0, 0.0));
    for i in 0..3 {
        edge.report_checkin(settled, home + Point::new(f64::from(i), 0.0));
    }
    for i in 0..5 {
        edge.report_checkin(fresh, Point::new(-7_000.0, f64::from(i) * 10.0));
    }
    edge.checkpoint().to_vec()
}

/// `body` with a valid checksum appended, so its defects reach the
/// structural checks.
fn sealed(body: &[u8]) -> Vec<u8> {
    let mut image = body.to_vec();
    image.extend_from_slice(&fnv1a64(body).to_be_bytes());
    image
}

/// Restores `image` through the one-pass reader and through
/// `DeviceSnapshot::decode` + `restore_from`, and returns the outcome once
/// both agree: the same error, or devices with the same checkpoint bytes.
fn restore_both(config: SystemConfig, image: &[u8]) -> Result<Vec<u8>, String> {
    let outcome = |restored: Result<EdgeDevice, _>| {
        restored.map(|device| device.checkpoint().to_vec()).map_err(|e| format!("{e:?}"))
    };
    let streamed = outcome(EdgeDevice::restore_from_checkpoint(config, image));
    let decoded = outcome(
        DeviceSnapshot::decode(image).and_then(|snap| EdgeDevice::restore_from(config, snap)),
    );
    assert_eq!(streamed, decoded, "restore paths disagree on {image:?}");
    streamed
}

#[test]
fn restore_paths_agree_on_every_truncation_and_bit_flip() {
    let config = SystemConfig::builder().build().unwrap();
    let image = checkpoint_image(config);
    assert_eq!(restore_both(config, &image), Ok(image.clone()));
    let body = &image[..image.len() - 8];
    for len in 0..image.len() {
        assert!(restore_both(config, &image[..len]).is_err(), "prefix of {len} bytes");
    }
    // Resealed prefixes pass the checksum and stop inside a section.
    for len in 0..body.len() {
        assert!(restore_both(config, &sealed(&body[..len])).is_err(), "sealed prefix {len}");
    }
    for byte in 0..image.len() {
        for bit in 0..8 {
            let mut flipped = image.clone();
            flipped[byte] ^= 1 << bit;
            assert!(restore_both(config, &flipped).is_err(), "byte {byte} bit {bit}");
            // Resealed, the flip reaches the reader: it may land on a
            // structural defect, an invalid table, or another valid image.
            if byte < body.len() {
                restore_both(config, &sealed(&flipped[..body.len()])).ok();
            }
        }
    }
}
