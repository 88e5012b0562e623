//! The client ↔ edge wire protocol in action: an edge shard, several
//! concurrent mobile-client threads talking to it in binary frames (each
//! call is served on its client's thread), and a look at what the frames
//! carry.
//!
//! ```sh
//! cargo run --release --example edge_protocol
//! ```

use privlocad::protocol::ClientRequest;
use privlocad::{ShardRouter, SystemConfig};
use privlocad_geo::Point;
use privlocad_mobility::UserId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = SystemConfig::builder().n_fold(5).build()?;
    // A one-shard router is a single edge node.
    let edge = ShardRouter::spawn(config, 99, 1);

    // Show the wire format of one request.
    let frame = ClientRequest::RequestLocation {
        user: UserId::new(1),
        location: Point::new(1_000.0, 2_000.0),
    }
    .encode();
    println!("a RequestLocation frame is {} bytes: {:02x?}", frame.len(), &frame[..]);

    // Four commuters hammer the edge concurrently.
    std::thread::scope(|scope| -> Result<(), String> {
        let workers: Vec<_> = (0..4u32)
            .map(|u| {
                let edge = &edge;
                scope.spawn(move || -> Result<(u32, Point, Point), String> {
                    let user = UserId::new(u);
                    let home = Point::new(u as f64 * 4_000.0, 1_000.0);
                    for t in 0..40 {
                        edge.check_in(user, home, t).map_err(|e| e.to_string())?;
                    }
                    let fresh = edge.finalize_window(user).map_err(|e| e.to_string())?;
                    assert_eq!(fresh, 1);
                    let reported = edge.request_location(user, home).map_err(|e| e.to_string())?;
                    Ok((u, home, reported))
                })
            })
            .collect();
        for w in workers {
            let (u, home, reported) = w.join().expect("client thread panicked")?;
            println!(
                "user {u}: home {home} -> reported {reported} ({:.0} m away, permanent candidate)",
                home.distance(reported)
            );
        }
        Ok(())
    })?;

    edge.shutdown()?;
    let devices = edge.join()?;
    println!("edge served {} users and shut down cleanly", devices[0].user_count());
    Ok(())
}
