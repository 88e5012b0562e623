//! Property-based tests for the attack crate.

use privlocad_attack::evaluation::{rank_distances, AttackStats};
use privlocad_attack::{
    connectivity_clusters, connectivity_clusters_with, AttackConfig, ClusterScratch,
    DeobfuscationAttack, InferredLocation, LocationProfile, ProfileEntry,
};
use privlocad_geo::rng::seeded;
use privlocad_geo::Point;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

fn point() -> impl Strategy<Value = Point> {
    (-20_000.0..20_000.0f64, -20_000.0..20_000.0f64).prop_map(|(x, y)| Point::new(x, y))
}

/// The connectivity rule checked over all pairs: θ-cells
/// `(⌊x/θ⌋ as i64, ⌊y/θ⌋ as i64)` within ±1 per axis under wrapping
/// arithmetic, and `distance_sq ≤ θ²`. Components come out in the
/// clustering's order: size descending, then smallest member.
fn reference_clusters(points: &[Point], theta: f64) -> Vec<Vec<usize>> {
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            x = parent[x];
        }
        x
    }
    let key = |p: Point| ((p.x / theta).floor() as i64, (p.y / theta).floor() as i64);
    let near = |a: i64, b: i64| matches!(a.wrapping_sub(b), -1..=1);
    let mut parent: Vec<usize> = (0..points.len()).collect();
    for i in 0..points.len() {
        for j in i + 1..points.len() {
            let (ki, kj) = (key(points[i]), key(points[j]));
            if near(ki.0, kj.0)
                && near(ki.1, kj.1)
                && points[i].distance_sq(points[j]) <= theta * theta
            {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                parent[ri.max(rj)] = ri.min(rj);
            }
        }
    }
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut slot = vec![usize::MAX; points.len()];
    for i in 0..points.len() {
        let root = find(&mut parent, i);
        if slot[root] == usize::MAX {
            slot[root] = groups.len();
            groups.push(Vec::new());
        }
        groups[slot[root]].push(i);
    }
    groups.sort_by(|a, b| b.len().cmp(&a.len()).then(a[0].cmp(&b[0])));
    groups
}

/// A window biased toward the clustering's edge cases: coordinates on and
/// one ulp off multiples of θ/2, ±0.0 and tiny subnormals, pairs exactly θ
/// apart along the axes and diagonals, duplicates, dense blobs (σ ≪ θ)
/// including ones on cell corners, points on both sides of 2^50 θ-cells,
/// and a few huge or non-finite points.
fn edge_case_window(seed: u64) -> (f64, Vec<Point>) {
    fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
        items[rng.gen_range(0..items.len())]
    }
    /// `v` on a random axis of `anchor`.
    fn on_axis(rng: &mut StdRng, anchor: Point, v: f64) -> Point {
        if rng.gen() {
            Point::new(v, anchor.y)
        } else {
            Point::new(anchor.x, v)
        }
    }
    let mut rng = seeded(seed);
    let theta: f64 = pick(&mut rng, &[50.0, 50.0, 1.0, 0.1, 7.5, 3e5]);
    let lattice = |rng: &mut StdRng| {
        let v = f64::from(rng.gen_range(-12i32..=12)) * theta / 2.0;
        match rng.gen_range(0..6) {
            0 => -v,
            1 => f64::from_bits(v.to_bits() + 1),
            2 if v != 0.0 => f64::from_bits(v.to_bits() - 1),
            3 => f64::from_bits(rng.gen_range(1..40)) * pick(rng, &[-1.0, 1.0]),
            _ => v,
        }
    };
    let h = 0.5f64.sqrt();
    let steps =
        [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (0.6, 0.8), (0.8, -0.6), (h, -h)];
    let far = 2f64.powi(50) * theta;
    let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300, -1e300, f64::MAX];
    let mut pts: Vec<Point> = Vec::new();
    for _ in 0..rng.gen_range(1..14) {
        let anchor = Point::new(lattice(&mut rng), lattice(&mut rng));
        match rng.gen_range(0..8) {
            0 => pts.push(anchor),
            1 => {
                let (dx, dy) = pick(&mut rng, &steps);
                pts.extend([anchor, Point::new(anchor.x + dx * theta, anchor.y + dy * theta)]);
            }
            2 => {
                let spread = theta / 20.0;
                for _ in 0..rng.gen_range(2..25) {
                    let (dx, dy) = (rng.gen_range(-spread..spread), rng.gen_range(-spread..spread));
                    pts.push(Point::new(anchor.x + dx, anchor.y + dy));
                }
            }
            3 if !pts.is_empty() => pts.push(pick(&mut rng, &pts)),
            4 => {
                let side = pick(&mut rng, &[far, -far]);
                for _ in 0..rng.gen_range(1..4) {
                    let v = side + f64::from(rng.gen_range(-4i32..=4)) * theta / 4.0;
                    pts.push(on_axis(&mut rng, anchor, v));
                }
            }
            5 => {
                let v = pick(&mut rng, &odd);
                pts.push(on_axis(&mut rng, anchor, v));
            }
            _ => {
                let (x, y) = (rng.gen_range(-6.0..6.0), rng.gen_range(-6.0..6.0));
                pts.push(Point::new(x * theta, y * theta));
            }
        }
    }
    (theta, pts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn clustering_matches_the_all_pairs_rule(seed in any::<u64>(), warm in any::<u64>()) {
        let (theta, pts) = edge_case_window(seed);
        let expected = reference_clusters(&pts, theta);
        // A scratch that already clustered another window must not matter.
        let mut scratch = ClusterScratch::default();
        let (warm_theta, warm_pts) = edge_case_window(warm);
        connectivity_clusters_with(&warm_pts, warm_theta, &mut scratch);
        let clusters = connectivity_clusters_with(&pts, theta, &mut scratch);
        let members: Vec<Vec<usize>> = clusters.into_iter().map(|c| c.members).collect();
        prop_assert_eq!(&members, &expected, "theta {} points {:?}", theta, pts);

        let profile = LocationProfile::from_checkins(&pts, theta);
        prop_assert_eq!(profile.len(), expected.len());
        for (entry, group) in profile.iter().zip(&expected) {
            let mut sum = Point::ORIGIN;
            for &i in group {
                sum += pts[i];
            }
            let n = group.len() as f64;
            prop_assert_eq!(entry.frequency, group.len());
            prop_assert_eq!(entry.location.x.to_bits(), (sum.x / n).to_bits());
            prop_assert_eq!(entry.location.y.to_bits(), (sum.y / n).to_bits());
        }
    }
}

proptest! {
    #[test]
    fn clusters_partition_input(
        pts in proptest::collection::vec(point(), 0..120),
        theta in 1.0..500.0f64,
    ) {
        let clusters = connectivity_clusters(&pts, theta);
        let mut count = 0;
        let mut seen = vec![false; pts.len()];
        for c in &clusters {
            prop_assert!(!c.is_empty());
            for &m in &c.members {
                prop_assert!(!seen[m]);
                seen[m] = true;
                count += 1;
            }
        }
        prop_assert_eq!(count, pts.len());
    }

    #[test]
    fn cluster_sizes_are_sorted_descending(
        pts in proptest::collection::vec(point(), 1..120),
        theta in 1.0..500.0f64,
    ) {
        let clusters = connectivity_clusters(&pts, theta);
        for w in clusters.windows(2) {
            prop_assert!(w[0].len() >= w[1].len());
        }
    }

    #[test]
    fn larger_theta_never_increases_cluster_count(
        pts in proptest::collection::vec(point(), 1..80),
        theta in 10.0..200.0f64,
    ) {
        let small = connectivity_clusters(&pts, theta).len();
        let large = connectivity_clusters(&pts, theta * 2.0).len();
        prop_assert!(large <= small);
    }

    #[test]
    fn profile_total_matches_input_and_frequencies(
        pts in proptest::collection::vec(point(), 0..120),
    ) {
        let p = LocationProfile::from_checkins(&pts, 50.0);
        prop_assert_eq!(p.total_checkins(), pts.len());
        let freq_sum: usize = p.iter().map(|e| e.frequency).sum();
        prop_assert_eq!(freq_sum, pts.len());
    }

    #[test]
    fn entropy_nonnegative_and_bounded_by_ln_m(
        freqs in proptest::collection::vec(1usize..1_000, 1..30),
    ) {
        let entries = freqs.iter().enumerate().map(|(i, &f)| ProfileEntry {
            location: Point::new(i as f64 * 100_000.0, 0.0),
            frequency: f,
        });
        let p = LocationProfile::from_entries(entries);
        let h = p.entropy();
        prop_assert!(h >= -1e-12);
        prop_assert!(h <= (p.len() as f64).ln() + 1e-9);
    }

    #[test]
    fn inferred_supports_never_exceed_input(
        pts in proptest::collection::vec(point(), 1..100),
        k in 1usize..4,
        r_alpha in 50.0..2_000.0f64,
    ) {
        let attack = DeobfuscationAttack::new(AttackConfig::new(50.0, r_alpha));
        let inferred = attack.infer_top_locations(&pts, k);
        prop_assert!(inferred.len() <= k);
        let support: usize = inferred.iter().map(|i| i.support).sum();
        prop_assert!(support <= pts.len());
        for (i, loc) in inferred.iter().enumerate() {
            prop_assert_eq!(loc.rank, i);
            prop_assert!(loc.location.is_finite());
            prop_assert!(loc.support >= 1);
        }
    }

    #[test]
    fn success_rate_monotone_in_threshold(
        ds in proptest::collection::vec(proptest::option::of(0.0..5_000.0f64), 1..50),
        t1 in 0.0..2_500.0f64,
        dt in 0.0..2_500.0f64,
    ) {
        let mut stats = AttackStats::new(1);
        for d in &ds {
            stats.record(&[*d]);
        }
        prop_assert!(stats.success_rate(0, t1) <= stats.success_rate(0, t1 + dt) + 1e-12);
    }

    #[test]
    fn rank_distances_len_matches_truth(
        n_inf in 0usize..5,
        n_truth in 0usize..5,
    ) {
        let inferred: Vec<InferredLocation> = (0..n_inf)
            .map(|r| InferredLocation { rank: r, location: Point::ORIGIN, support: 1 })
            .collect();
        let truth: Vec<Point> = (0..n_truth).map(|i| Point::new(i as f64, 0.0)).collect();
        let d = rank_distances(&inferred, &truth);
        prop_assert_eq!(d.len(), n_truth);
        for (k, v) in d.iter().enumerate() {
            prop_assert_eq!(v.is_some(), k < n_inf);
        }
    }
}
