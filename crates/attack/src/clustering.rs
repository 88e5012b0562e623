use privlocad_geo::Point;

/// A cluster of check-in indices produced by [`connectivity_clusters`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cluster {
    /// Indices into the input slice, in ascending order.
    pub members: Vec<usize>,
}

impl Cluster {
    /// Number of check-ins in the cluster — the frequency estimate of the
    /// location profile.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` if the cluster has no members (never produced by
    /// [`connectivity_clusters`], but useful for callers building clusters
    /// incrementally).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The centroid of the cluster's members within `points`.
    ///
    /// Returns `None` for an empty cluster.
    ///
    /// # Panics
    ///
    /// Panics if a member index is out of bounds for `points`.
    pub fn centroid(&self, points: &[Point]) -> Option<Point> {
        if self.members.is_empty() {
            return None;
        }
        let mut sum = Point::ORIGIN;
        for &i in &self.members {
            sum += points[i];
        }
        Some(Point::new(sum.x / self.members.len() as f64, sum.y / self.members.len() as f64))
    }
}

/// Partitions `points` into connectivity-based clusters: two check-ins are
/// *connected* when their Euclidean distance is at most `theta` meters, and
/// clusters are the connected components of that graph (Algorithm 1, line 2;
/// also the profiling step of Section III-B with θ = 50 m).
///
/// Clusters are returned sorted by size, largest first; ties are broken by
/// the smallest member index so the output is deterministic.
///
/// Only check-ins whose θ-cells `(⌊x/θ⌋, ⌊y/θ⌋)` (cast to `i64`) differ by
/// at most one per axis, wrapping at the `i64` bounds, are compared, with
/// `distance_sq ≤ θ²`. The points are sorted by θ-cell and half-θ
/// sub-cell. The points of one sub-cell are under 0.71·θ apart, so each
/// sub-cell joins a weighted-quick-union disjoint set whole; two sub-cells
/// in the same or adjacent θ-cells are scanned pair by pair only while
/// their components differ, stopping at the first pair within θ. The cost
/// is a sort plus, per neighbouring sub-cell pair whose components differ,
/// at most the product of their sizes. A point with a NaN or infinite
/// coordinate, or one 2^50 or more θ-cells from the origin, is compared
/// with every point of its nine neighbouring θ-cells instead.
///
/// # Panics
///
/// Panics if `theta` is not positive and finite.
///
/// # Examples
///
/// ```
/// use privlocad_attack::connectivity_clusters;
/// use privlocad_geo::Point;
///
/// let pts = vec![
///     Point::new(0.0, 0.0),
///     Point::new(30.0, 0.0),   // chained to the first
///     Point::new(60.0, 0.0),   // chained through the second
///     Point::new(500.0, 0.0),  // isolated
/// ];
/// let clusters = connectivity_clusters(&pts, 50.0);
/// assert_eq!(clusters[0].members, vec![0, 1, 2]);
/// assert_eq!(clusters[1].members, vec![3]);
/// ```
pub fn connectivity_clusters(points: &[Point], theta: f64) -> Vec<Cluster> {
    connectivity_clusters_with(points, theta, &mut ClusterScratch::default())
}

/// Reusable buffers for [`connectivity_clusters_with`]: the sorted cell
/// entries and their run boundaries survive across calls, so repeated
/// clustering passes (one per extracted rank in Algorithm 1, one per trial
/// in the Monte-Carlo sweeps) stop re-allocating them every time.
///
/// The scratch is pure acceleration state — results are identical whether
/// a scratch is fresh or carried over from any previous call.
#[derive(Debug, Default)]
pub struct ClusterScratch {
    /// `(θ-cell x, θ-cell y, half-θ sub-cell 0..4, point index)` of each
    /// point the sub-cell shortcut covers, sorted by cell.
    cells: Vec<(i64, i64, u8, usize)>,
    /// Those points, in the same order.
    sorted: Vec<Point>,
    /// Start of each sub-cell run in `sorted`, then `sorted.len()`.
    runs: Vec<usize>,
    /// Each θ-cell's key and first run, then a sentinel holding the run count.
    blocks: Vec<(i64, i64, usize)>,
    /// `(θ-cell x, θ-cell y, point index)` of the other points, sorted.
    others: Vec<(i64, i64, usize)>,
    /// Each point's disjoint-set node: its run, or a node of its own for
    /// the other points.
    node: Vec<usize>,
}

/// `|x/θ|` and `|y/θ|` below which the sub-cell shortcut is exact: keys are
/// exact integers whose ±1 neighbours cannot overflow, and two points of
/// one sub-cell are at most half a θ-cell apart per axis. NaN and ±∞ fail
/// the comparison.
const SHORTCUT_LIMIT: f64 = (1u64 << 50) as f64;

/// [`connectivity_clusters`] with caller-owned scratch buffers.
///
/// # Panics
///
/// Panics if `theta` is not positive and finite.
pub fn connectivity_clusters_with(
    points: &[Point],
    theta: f64,
    scratch: &mut ClusterScratch,
) -> Vec<Cluster> {
    assert!(theta.is_finite() && theta > 0.0, "theta must be positive and finite");
    if points.is_empty() {
        return Vec::new();
    }
    let theta_sq = theta * theta;
    let ClusterScratch { cells, sorted, runs, blocks, others, node } = scratch;
    cells.clear();
    others.clear();
    for (i, p) in points.iter().enumerate() {
        let (qx, qy) = (p.x / theta, p.y / theta);
        if qx.abs() < SHORTCUT_LIMIT && qy.abs() < SHORTCUT_LIMIT {
            // ⌊2q⌋ is the half-θ sub-cell; shifted down one bit, ⌊q⌋.
            let (sx, sy) = ((2.0 * qx).floor() as i64, (2.0 * qy).floor() as i64);
            cells.push((sx >> 1, sy >> 1, ((sx & 1) << 1 | (sy & 1)) as u8, i));
        } else {
            others.push((qx.floor() as i64, qy.floor() as i64, i));
        }
    }
    cells.sort_unstable_by_key(|&(kx, ky, sub, _)| (kx, ky, sub));
    others.sort_unstable();

    sorted.clear();
    runs.clear();
    blocks.clear();
    node.clear();
    node.resize(points.len(), 0);
    for (k, &(kx, ky, sub, i)) in cells.iter().enumerate() {
        match k.checked_sub(1).map(|prev| cells[prev]) {
            Some((px, py, ps, _)) if (px, py, ps) == (kx, ky, sub) => {}
            Some((px, py, ..)) if (px, py) == (kx, ky) => runs.push(k),
            _ => {
                blocks.push((kx, ky, runs.len()));
                runs.push(k);
            }
        }
        sorted.push(points[i]);
        node[i] = runs.len() - 1;
    }
    let n_runs = runs.len();
    let n_blocks = blocks.len();
    blocks.push((0, 0, n_runs));
    runs.push(cells.len());
    for (o, &(.., i)) in others.iter().enumerate() {
        node[i] = n_runs + o;
    }
    let mut dsu = DisjointSet::new(
        runs.windows(2).map(|w| w[1] - w[0]).chain(others.iter().map(|_| 1)).collect(),
    );

    let block_key = |b: usize| (blocks[b].0, blocks[b].1);
    let block_runs = |b: usize| blocks[b].2..blocks[b + 1].2;
    // Sub-cells within one θ-cell first: dense places then enter the
    // neighbour pass as one component each, which one pair can join.
    for b in 0..n_blocks {
        let own = block_runs(b);
        for r in own.clone() {
            for s in r + 1..own.end {
                link(&mut dsu, sorted, runs, theta_sq, r, s);
            }
        }
    }
    // Each adjacent θ-cell pair once, from its lower key: (x, y + 1), then
    // (x + 1, y − 1 ..= y + 1), which a forward-only cursor finds.
    let mut column = 0;
    for (b, &(kx, ky, _)) in blocks[..n_blocks].iter().enumerate() {
        let above = (b + 1..n_blocks).take_while(|&c| block_key(c) == (kx, ky + 1));
        while column < n_blocks && block_key(column) < (kx + 1, ky - 1) {
            column += 1;
        }
        let right = (column..n_blocks).take_while(|&c| block_key(c) <= (kx + 1, ky + 1));
        for c in above.chain(right) {
            for r in block_runs(b) {
                for s in block_runs(c) {
                    link(&mut dsu, sorted, runs, theta_sq, r, s);
                }
            }
        }
    }
    // The other points keep the rule verbatim: every point of the nine
    // neighbouring θ-cells, wrapping at the `i64` bounds.
    for (o, &(kx, ky, i)) in others.iter().enumerate() {
        for dx in -1..=1 {
            for dy in -1..=1 {
                let key = (kx.wrapping_add(dx), ky.wrapping_add(dy));
                let b = blocks[..n_blocks].partition_point(|&(bx, by, _)| (bx, by) < key);
                if b < n_blocks && block_key(b) == key {
                    for r in block_runs(b) {
                        for &q in &sorted[runs[r]..runs[r + 1]] {
                            if points[i].distance_sq(q) <= theta_sq {
                                dsu.union(n_runs + o, r);
                            }
                        }
                    }
                }
                let first = others.partition_point(|&(x, y, _)| (x, y) < key);
                let cell = others.iter().enumerate().skip(first);
                for (p, &(.., j)) in cell.take_while(|&(_, &(x, y, _))| (x, y) == key) {
                    if points[i].distance_sq(points[j]) <= theta_sq {
                        dsu.union(n_runs + o, n_runs + p);
                    }
                }
            }
        }
    }

    let mut slot = vec![usize::MAX; dsu.parent.len()];
    let mut clusters: Vec<Cluster> = Vec::new();
    for (i, &n) in node.iter().enumerate() {
        let root = dsu.find(n);
        if slot[root] == usize::MAX {
            slot[root] = clusters.len();
            clusters.push(Cluster { members: Vec::with_capacity(dsu.size[root]) });
        }
        clusters[slot[root]].members.push(i);
    }
    clusters.sort_by(|a, b| b.len().cmp(&a.len()).then(a.members[0].cmp(&b.members[0])));
    clusters
}

/// Joins the components of sub-cell runs `r` and `s` at the first pair of
/// their points within θ.
fn link(
    dsu: &mut DisjointSet,
    sorted: &[Point],
    runs: &[usize],
    theta_sq: f64,
    r: usize,
    s: usize,
) {
    if dsu.find(r) == dsu.find(s) {
        return;
    }
    let theirs = &sorted[runs[s]..runs[s + 1]];
    for &p in &sorted[runs[r]..runs[r + 1]] {
        if theirs.iter().any(|&q| p.distance_sq(q) <= theta_sq) {
            dsu.union(r, s);
            return;
        }
    }
}

/// Weighted quick-union with path halving.
#[derive(Debug)]
struct DisjointSet {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl DisjointSet {
    /// One singleton set per entry of `size`, each of that many points.
    fn new(size: Vec<usize>) -> Self {
        DisjointSet { parent: (0..size.len()).collect(), size }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privlocad_geo::rng::{gaussian_2d, seeded};

    #[test]
    fn empty_input_gives_no_clusters() {
        assert!(connectivity_clusters(&[], 50.0).is_empty());
    }

    #[test]
    fn single_point_is_single_cluster() {
        let clusters = connectivity_clusters(&[Point::ORIGIN], 50.0);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].members, vec![0]);
    }

    #[test]
    fn transitive_chaining_joins_clusters() {
        // 0-1-2 chained at 40 m steps (pairwise 0-2 distance is 80 > θ).
        let pts = vec![Point::new(0.0, 0.0), Point::new(40.0, 0.0), Point::new(80.0, 0.0)];
        let clusters = connectivity_clusters(&pts, 50.0);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].members, vec![0, 1, 2]);
    }

    #[test]
    fn distance_exactly_theta_is_connected() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(50.0, 0.0)];
        assert_eq!(connectivity_clusters(&pts, 50.0).len(), 1);
    }

    #[test]
    fn two_well_separated_blobs() {
        let mut rng = seeded(4);
        let mut pts = Vec::new();
        for _ in 0..80 {
            pts.push(Point::new(0.0, 0.0) + gaussian_2d(&mut rng, 10.0));
        }
        for _ in 0..40 {
            pts.push(Point::new(5_000.0, 0.0) + gaussian_2d(&mut rng, 10.0));
        }
        let clusters = connectivity_clusters(&pts, 50.0);
        assert_eq!(clusters[0].len(), 80);
        assert_eq!(clusters[1].len(), 40);
        // Largest-first ordering.
        assert!(clusters[0].len() >= clusters[1].len());
        // Centroids near the true blob centers.
        assert!(clusters[0].centroid(&pts).unwrap().distance(Point::ORIGIN) < 10.0);
        assert!(clusters[1].centroid(&pts).unwrap().distance(Point::new(5_000.0, 0.0)) < 10.0);
    }

    #[test]
    fn clusters_partition_the_input() {
        let mut rng = seeded(8);
        let pts: Vec<Point> = (0..500).map(|_| gaussian_2d(&mut rng, 2_000.0)).collect();
        let clusters = connectivity_clusters(&pts, 50.0);
        let mut seen = vec![false; pts.len()];
        for c in &clusters {
            for &m in &c.members {
                assert!(!seen[m], "index {m} appears twice");
                seen[m] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn deterministic_ordering() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(1_000.0, 0.0), Point::new(2_000.0, 0.0)];
        let a = connectivity_clusters(&pts, 50.0);
        let b = connectivity_clusters(&pts, 50.0);
        assert_eq!(a, b);
        // Equal sizes → ordered by smallest member index.
        assert_eq!(a[0].members, vec![0]);
        assert_eq!(a[1].members, vec![1]);
        assert_eq!(a[2].members, vec![2]);
    }

    #[test]
    fn cluster_helpers() {
        let c = Cluster { members: vec![] };
        assert!(c.is_empty());
        assert_eq!(c.centroid(&[]), None);
    }

    #[test]
    #[should_panic(expected = "theta must be positive")]
    fn rejects_bad_theta() {
        let _ = connectivity_clusters(&[Point::ORIGIN], f64::NAN);
    }

    #[test]
    fn out_of_range_points_keep_their_partition() {
        // Non-finite and huge check-ins can arrive unvalidated from a
        // client. Their keys saturate (NaN to 0) and neighbour keys wrap at
        // the `i64` bounds without overflowing; only the duplicate pair is
        // within θ.
        let members = |coords: &[(f64, f64)]| -> Vec<Vec<usize>> {
            let pts: Vec<Point> = coords.iter().map(|&(x, y)| Point::new(x, y)).collect();
            connectivity_clusters(&pts, 50.0).into_iter().map(|c| c.members).collect()
        };
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        assert_eq!(members(&[(inf, 0.0), (0.0, 0.0)]), [[0], [1]]);
        assert_eq!(members(&[(nan, 1.0), (nan, 2.0)]), [[0], [1]]);
        assert_eq!(members(&[(nan, nan), (3.0, 4.0)]), [[0], [1]]);
        assert_eq!(members(&[(1e300, 0.0), (2e300, 0.0)]), [[0], [1]]);
        assert_eq!(members(&[(-inf, 0.0), (inf, 0.0)]), [[0], [1]]);
        assert_eq!(members(&[(1e300, 0.0), (1e300, 0.0)]), [[0, 1]]);
    }

    #[test]
    fn reused_scratch_matches_fresh_clustering() {
        let mut rng = seeded(13);
        let mut scratch = ClusterScratch::default();
        for round in 0..4 {
            let pts: Vec<Point> =
                (0..300).map(|_| gaussian_2d(&mut rng, 1_000.0 + 500.0 * round as f64)).collect();
            let fresh = connectivity_clusters(&pts, 50.0);
            let reused = connectivity_clusters_with(&pts, 50.0, &mut scratch);
            assert_eq!(fresh, reused, "round {round}");
        }
    }
}
