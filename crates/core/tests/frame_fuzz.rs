//! Adversarial fuzz of the hardened wire decoders: random truncation,
//! bit flips and byte soup must always yield a structured `FrameError`
//! (or a clean decode of a different valid frame), never a panic — a
//! malformed radio frame must cost the sender a strike, not the edge
//! worker its life. A checkpoint image, truncated or flipped, must be
//! refused (or read) alike by the decoder and the restore.

use privlocad::protocol::{split_sequenced, ClientRequest, EdgeResponse};
use privlocad::recovery::{candidate_redraws, DeviceSnapshot, RecoveryError};
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
    fn arbitrary_byte_soup_never_panics_any_decoder(
        bytes in proptest::collection::vec(any::<u8>(), 0..160),
    ) {
        let _ = ClientRequest::decode(&bytes);
        let _ = EdgeResponse::decode(&bytes);
        // The fabric's envelope decoder, on the soup as it comes and
        // behind a sequenced tag; an envelope that opens hands its inner
        // frame to the strict decoder, as a shard does.
        for frame in [bytes.clone(), [&[0x05][..], &bytes].concat()] {
            if let Ok(Some((_, inner))) = split_sequenced(&frame) {
                let _ = ClientRequest::decode(inner);
            }
        }
        // The recovery log decoder is part of the same trust boundary: a
        // corrupt persisted snapshot must error, never poison a device.
        prop_assert!(DeviceSnapshot::decode(&bytes).is_err());
    }
}

/// A small checkpoint image touching every section: a settled user (a
/// candidate set, a served stream position) with an open window, and a
/// user whose first window is still open.
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

/// Decodes `image` and restores a device from it — the one image reader
/// into its two sinks — and returns the restored device's checkpoint or
/// the error once they agree: both refuse the image with the same error,
/// only the restore refuses it as `InvalidPosterior` (the decoder binds no
/// config and builds no table), or the device holds every decoded candidate set
/// unchanged. A valid image need not be canonical (a flip may orphan a
/// pool entry or reorder users), so a success is compared by the released
/// sets, not the bytes.
fn restore_both(config: SystemConfig, image: &[u8]) -> Result<Vec<u8>, String> {
    match (DeviceSnapshot::decode(image), EdgeDevice::restore_from_checkpoint(config, image)) {
        (Ok(snap), Ok(device)) => {
            assert_eq!(candidate_redraws(&snap, &device.snapshot()), Ok(0), "on {image:?}");
            Ok(device.checkpoint().to_vec())
        }
        (Ok(_), Err(e @ RecoveryError::InvalidPosterior { .. })) => Err(format!("{e:?}")),
        (Err(a), Err(b)) => {
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "decode and restore disagree");
            Err(format!("{a:?}"))
        }
        (decoded, restored) => {
            panic!("decode and restore disagree on {image:?}: {decoded:?}, {:?}", restored.err())
        }
    }
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
