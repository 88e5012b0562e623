use privlocad_geo::Point;
use serde::{Deserialize, Serialize};

/// The advertising identifier of a device (Android ID / IDFA in the paper's
/// attack model) — the stable key that lets a longitudinal attacker link
/// bid requests of the same user over years.
///
/// The type itself lives in `privlocad-openrtb` (it is a wire concept shared
/// with the OpenRTB-lite codec); this re-export keeps every existing adnet
/// consumer compiling unchanged.
pub use privlocad_openrtb::DeviceId;

/// A real-time-bidding request as the auction sees it: the device id and
/// the *reported* (possibly obfuscated) location. The OpenRTB-lite request
/// on the wire carries the same two fields plus its sequence number
/// ([`AdNetwork::serve_exchange`](crate::AdNetwork::serve_exchange)).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BidRequest {
    /// The requesting device.
    pub device: DeviceId,
    /// Reported location — after Edge-PrivLocAd this is an obfuscated
    /// candidate, never the true position.
    pub location: Point,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_display_is_hex() {
        assert_eq!(DeviceId::new(255).to_string(), "device-00000000000000ff");
    }
}
